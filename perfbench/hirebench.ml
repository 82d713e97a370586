(* hirebench — the repository benchmark (README.md in this directory).

   hirebench --workload fabric-k16|churn-k8|serve-open --seed N
             --seconds S --trace 0|1

   Prints each metric by name with its unit, then, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   ones.  Every workload runs a fixed amount of work, so [--seconds] is
   accepted and not used: a run takes what its work takes. *)

let () =
  (match Sys.argv with
  | [| _; "--serve-child"; dir; sock |] -> Pb_serve.child ~dir ~sock
  | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME fabric-k16 | churn-k8 | serve-open");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are drawn from");
      ("--seconds", Arg.Set_float seconds, "S accepted; each workload's work is fixed");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  Arg.parse specs
    (fun a -> Pb_util.die "unexpected argument %S" a)
    "hirebench --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then Pb_util.die "--trace takes 0 or 1";
  let traced = !trace = 1 in
  let o =
    match !workload with
    | "fabric-k16" ->
        if traced then Pb_sim.run_traced Pb_sim.fabric ~seed:!seed
        else Pb_sim.run Pb_sim.fabric ~seed:!seed
    | "churn-k8" ->
        if traced then Pb_sim.run_traced Pb_sim.churn ~seed:!seed
        else Pb_sim.run Pb_sim.churn ~seed:!seed
    | "serve-open" -> Pb_serve.run ~seed:!seed ~traced
    | w -> Pb_util.die "unknown workload %S (fabric-k16 | churn-k8 | serve-open)" w
  in
  Printf.printf "workload=%s seed=%d trace=%d\n" !workload !seed !trace;
  Pb_util.print_result ~correct:o.Pb_util.correct ~attempted:o.attempted ~failed:o.failed
    o.metrics
