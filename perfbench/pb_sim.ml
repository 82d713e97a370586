(* The simulation workloads: fabric-k16 and churn-k8.

   One operation is one experiment cell — world build, stepping to
   exhaustion, [finish] — with its checks.  A run is a fixed number of
   cells, whatever [--seconds] says, so every commit measures the same
   work.  The world is built through
   the same public calls, in the same RNG split order, as
   [Harness.Experiment.prepare], so each call can be timed and the
   scheduler's closures wrapped; the traced run proves the result equal
   to [Harness.Experiment.run] on the same spec. *)

module E = Harness.Experiment
module SI = Sim.Scheduler_intf
module Rng = Prelude.Rng
open Pb_util

type workload = {
  k : int;
  horizon : float;
  faults : Faults.spec option;
  cells : int;  (* cells per run *)
  fixed_seed : int option;  (* every cell on this seed, whatever the run's *)
}

(* The k=16 fabric: 1024 servers, fault-free.  A run pools seven 16 s
   cells, about 800 rounds: more would not fit the benchmark's time on a
   slow host.  One long cell per run left wall_s and the round latencies
   varying by a fifth to a third from seed to seed. *)
let fabric = { k = 16; horizon = 16.0; faults = None; cells = 7; fixed_seed = None }

(* The k=8 reference cell under the default fault plan of [hire_sim
   --faults]: MTBF 200 s, MTTR 30 s, 3 retries.  Every cell of it trips
   the shared-switch fault of the program (see Pb_check), so its cells
   are one fixed cell, seed 1 (the simulator's default), run again and
   again: the operation fails on every run, on inputs that do not depend
   on the run's seed. *)
let churn =
  let plan =
    {
      Faults.Plan.default_config with
      server_mtbf = 200.0;
      switch_mtbf = 200.0;
      server_mttr = 30.0;
      switch_mttr = 30.0;
    }
  in
  {
    k = 8;
    horizon = 400.0;
    faults = Some { Faults.plan; policy = Faults.Policy.create ~max_retries:3 () };
    cells = 8;
    fixed_seed = Some 1;
  }

(* [hire_sim]'s cell: HIRE, μ=1, homogeneous switches, offered load 0.8,
   INC-capable switch share k/26. *)
let spec w ~seed =
  {
    E.default with
    scheduler = "hire";
    mu = 1.0;
    setup = Sim.Cluster.Homogeneous;
    k = w.k;
    horizon = w.horizon;
    seed;
    inc_capable_fraction = None;
    faults = w.faults;
  }

(* Cells of one run draw their seeds from the run's seed. *)
let cell_seed w ~seed i =
  match w.fixed_seed with Some s -> s | None -> (seed * 1000) + i

(* ---- world build -------------------------------------------------- *)

type world = {
  sim : Sim.Simulator.t;
  cluster : Sim.Cluster.t;
  parts : (string * float) list;  (* per-call build times, seconds *)
  setup : float;
}

let build ?(wrap = Fun.id) (spec : E.spec) =
  let t0 = now () in
  let parts = ref [] in
  let part name f =
    let v, dt = timed f in
    parts := (name, dt) :: !parts;
    v
  in
  let rng = Rng.create spec.seed in
  let trace_rng = Rng.split rng in
  let scenario_rng = Rng.split rng in
  let cluster_rng = Rng.split rng in
  let fault_rng = Rng.split rng in
  let store = Hire.Comp_store.default () in
  let services = Array.to_list (Hire.Comp_store.service_names store) in
  let topo = part "topology.fat_tree_s" (fun () -> Topology.Fat_tree.create ~k:spec.k) in
  let cluster =
    part "sim.cluster_s" (fun () ->
        Sim.Cluster.create ?inc_capable_fraction:spec.inc_capable_fraction ~topology:topo
          ~k:spec.k ~setup:spec.setup ~services cluster_rng)
  in
  let jobs =
    part "workload.trace_gen_s" (fun () ->
        let cfg =
          Workload.Trace_gen.scaled_rate
            ~n_servers:(Sim.Cluster.n_servers cluster)
            ~target_utilization:spec.target_utilization Workload.Trace_gen.default
        in
        Workload.Trace_gen.generate cfg trace_rng ~horizon:spec.horizon)
  in
  let scenario =
    part "sim.scenario_s" (fun () -> Sim.Scenario.build store scenario_rng ~mu:spec.mu jobs)
  in
  let sched =
    part "schedulers.create_s" (fun () ->
        Schedulers.Registry.create ?resilience:spec.resilience ~incremental:spec.incremental
          ~reopt:spec.reopt ~portfolio:spec.portfolio spec.scheduler ~seed:spec.seed cluster)
  in
  let sim =
    part "sim.init_s" (fun () ->
        let plan =
          Option.map
            (fun (fs : Faults.spec) ->
              let sharing = Sim.Cluster.sharing cluster in
              Faults.Plan.generate fs.plan fault_rng
                ~inc_capable:(fun s -> Hire.Sharing.supported_services sharing s <> [])
                ~servers:(Topology.Fat_tree.servers topo)
                ~switches:(Topology.Fat_tree.switches topo)
                ~horizon:spec.horizon)
            spec.faults
        in
        let policy = Option.map (fun (fs : Faults.spec) -> fs.policy) spec.faults in
        Sim.Simulator.init ?faults:plan ?fault_policy:policy cluster (wrap sched)
          scenario.Sim.Scenario.arrivals)
  in
  { sim; cluster; parts = List.rev !parts; setup = now () -. t0 }

let check_log w log report =
  let topo = Sim.Cluster.topo w.cluster in
  Pb_check.check ~topo
    ~server_cap:(Sim.Cluster.server_capacity w.cluster)
    ~switch_cap:(Hire.Sharing.capacity (Sim.Cluster.sharing w.cluster))
    log report

(* Time every round call of [s] into [lat]. *)
let time_rounds lat (s : SI.t) =
  {
    s with
    round =
      (fun ~time ->
        let t0 = now () in
        let r = s.round ~time in
        push lat (now () -. t0);
        r);
  }

(* ---- one untraced operation --------------------------------------- *)

type cell = {
  report : Sim.Metrics.report;
  wall : float;
  setup : float;
  recover : float list;
  rounds : samples;
  summary : Pb_check.summary;
}

exception Check_failed of string

let check_ok what = function Ok v -> v | Error msg -> raise (Check_failed (what ^ ": " ^ msg))

(* Step [w] to exhaustion and finish it; with [snapshot_at], take one
   checkpoint when simulated time first reaches it (outside the timing). *)
let drive ?snapshot_at w =
  let snap = ref None and paused = ref 0.0 in
  let t0 = now () in
  while Sim.Simulator.step w.sim do
    match snapshot_at with
    | Some at when !snap = None && Sim.Simulator.now w.sim >= at ->
        let blob, dt = timed (fun () -> Sim.Simulator.snapshot w.sim) in
        paused := !paused +. dt;
        snap := Some blob
    | _ -> ()
  done;
  let res = Sim.Simulator.finish w.sim in
  (res, now () -. t0 -. !paused, !snap)

(* A cell run with the placement log recorded and round calls timed. *)
let logged_cell ?snapshot_at spec =
  let log = Pb_check.new_log () and lat = samples () in
  Gc.full_major ();
  let w = build ~wrap:(fun s -> Pb_check.record log (time_rounds lat s)) spec in
  let res, wall, snap = drive ?snapshot_at w in
  (w, log, lat, res.Sim.Simulator.report, wall, snap)

(* Checkpoint recovery: rebuild the world and overlay the mid-run
   snapshot; the restored state must pass the ledger check.  Returns the
   time taken and the restored state's own snapshot. *)
let recover spec blob =
  let w, dt =
    timed (fun () ->
        let w = build spec in
        Sim.Simulator.restore w.sim blob;
        w)
  in
  check_ok "ledger_check after restore" (Sim.Simulator.ledger_check w.sim);
  match Sim.Simulator.snapshot w.sim with
  | Some b -> (dt, b)
  | None -> raise (Check_failed "restored world cannot snapshot")

(* Path independence: from-scratch network builds must reproduce the
   placement log and report of the persistent builder. *)
let path_check spec log report =
  let _, log', _, report', _, _ = logged_cell { spec with E.incremental = false } in
  if Pb_check.project log <> Pb_check.project log' then
    raise (Check_failed "placement log differs with --no-incremental");
  if not (Pb_check.same_report report report') then
    raise (Check_failed "report differs with --no-incremental")

let run_cell spec =
  let w, log, lat, report, wall, snap = logged_cell ~snapshot_at:(spec.E.horizon /. 2.0) spec in
  check_ok "ledger_check" (Sim.Simulator.ledger_check w.sim);
  let summary = check_ok "placement checker" (check_log w log report) in
  let blob =
    match snap with Some (Some b) -> b | _ -> raise (Check_failed "no mid-run checkpoint")
  in
  (* Set-up and recovery are short: each is reported as a median.
     Restoring a restored state's snapshot must give back that snapshot.
     The first restore is not compared with the original checkpoint:
     its snapshot comes out shorter (FOUND in CHANGES.md). *)
  let times, resnaps = List.split (List.init 3 (fun _ -> recover spec blob)) in
  let b1 = List.hd resnaps in
  if snd (recover spec b1) <> b1 then
    raise (Check_failed "restoring a restored checkpoint does not reproduce it");
  let recover = times in
  let setup = median_list (w.setup :: List.init 6 (fun _ -> (build spec).setup)) in
  { report; wall; setup; recover; rounds = lat; summary }

(* ---- the untraced run --------------------------------------------- *)

(* The [w.cells] cells of one run, back to back.  A cell whose only
   violation is the program's known shared-switch fault counts as a
   failed operation and still gives its measurements; any other failed
   check makes the run incorrect.  Returns the outcome and the run's
   sorted round latencies. *)
let run_cells w ~seed =
  let cells = ref [] and failed = ref 0 and correct = ref true in
  for i = 0 to w.cells - 1 do
    let spec = spec w ~seed:(cell_seed w ~seed i) in
    match run_cell spec with
    | c ->
        (match c.summary.Pb_check.shared_switch with
        | [] -> ()
        | first :: _ as l ->
            incr failed;
            Printf.eprintf
              "hirebench: operation failed: %d placement(s) of a network group on a \
               switch where it already runs, first %s\n%!"
              (List.length l) first);
        cells := c :: !cells
    | exception Check_failed msg ->
        correct := false;
        prerr_endline ("hirebench: check failed: " ^ msg)
    | exception e ->
        incr failed;
        prerr_endline ("hirebench: operation failed: " ^ Printexc.to_string e)
  done;
  let cells = List.rev !cells in
  let rounds = samples () in
  List.iter (fun c -> Array.iter (push rounds) (Array.sub c.rounds.data 0 c.rounds.n)) cells;
  let lat = sorted rounds in
  let placement = List.concat_map (fun c -> c.summary.Pb_check.placement_latency) cells in
  let jobs = List.fold_left (fun a c -> a + c.report.Sim.Metrics.jobs_total) 0 cells in
  let walls = List.map (fun c -> c.wall) cells in
  if beyond (Array.length lat) 0.99 < 10 then
    prerr_endline "hirebench: warning: fewer than ten rounds beyond the p99";
  Printf.printf "cells=%d rounds=%d jobs=%d\n" (List.length cells) (Array.length lat) jobs;
  print_dist "placement latency (sim s)" placement;
  ( {
    correct = !correct && cells <> [];
    attempted = w.cells;
    failed = !failed;
    metrics =
      [
        metric "setup_s" "s" (median_list (List.map (fun c -> c.setup) cells));
        metric "wall_s" "s" (List.fold_left ( +. ) 0.0 walls);
        metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        metric "inc_jobs_served" "jobs"
          (float_of_int (List.fold_left (fun a c -> a + c.report.inc_jobs_served) 0 cells));
        metric "placement_mean_sim_s" "sim_s" (mean_list placement);
        metric "jobs_per_s" "1/s" (float_of_int jobs /. List.fold_left ( +. ) 0.0 walls);
        metric "recover_s" "s" (median_list (List.concat_map (fun c -> c.recover) cells));
      ];
  },
  lat )

let run w ~seed = fst (run_cells w ~seed)

(* Round latencies are per-layer figures: on serve-open the matching
   ack latencies move too much from run to run to hold a bound. *)
let latencies lat =
  [
    metric "latency.p50_ms" "ms" (1e3 *. quantile_sorted lat 0.50);
    metric "latency.p95_ms" "ms" (1e3 *. quantile_sorted lat 0.95);
    metric "latency.p99_ms" "ms" (1e3 *. quantile_sorted lat 0.99);
  ]

(* ---- the traced run ----------------------------------------------- *)

type acc = {
  mutable round_s : float;
  mutable rounds_n : int;
  mutable complete_s : float;
  mutable other_s : float;
  mutable minor : float;
  mutable major : float;
}

(* Time every closure of [s]; rounds also get allocation deltas. *)
let instrument a (s : SI.t) =
  let clocked f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  {
    s with
    submit =
      (fun ~time p ->
        let (), dt = clocked (fun () -> s.submit ~time p) in
        a.other_s <- a.other_s +. dt);
    round =
      (fun ~time ->
        let mi, ma = alloc_words () in
        let r, dt = clocked (fun () -> s.round ~time) in
        let mi', ma' = alloc_words () in
        a.round_s <- a.round_s +. dt;
        a.rounds_n <- a.rounds_n + 1;
        a.minor <- a.minor +. (mi' -. mi);
        a.major <- a.major +. (ma' -. ma);
        r);
    on_task_complete =
      (fun ~time ~tg ~machine ->
        let (), dt = clocked (fun () -> s.on_task_complete ~time ~tg ~machine) in
        a.complete_s <- a.complete_s +. dt);
    on_node_event =
      (fun ~time ~node ~up ->
        let (), dt = clocked (fun () -> s.on_node_event ~time ~node ~up) in
        a.other_s <- a.other_s +. dt);
    drop_task_group =
      (fun ~time ~tg_id ->
        let (), dt = clocked (fun () -> s.drop_task_group ~time ~tg_id) in
        a.other_s <- a.other_s +. dt);
  }

(* The untraced run (for the tail latencies), then its first cell three
   more ways: [Harness.Experiment.run] untraced (the reference report and
   wall time), rebuilt with every call timed and the observability layer
   on, and through the from-scratch build path. *)
let run_traced w ~seed =
  let base, lat = run_cells w ~seed in
  let spec = spec w ~seed:(cell_seed w ~seed 0) in
  let correct = ref base.correct in
  let verify f =
    try f () with Check_failed msg ->
      correct := false;
      prerr_endline ("hirebench: check failed: " ^ msg)
  in
  Gc.full_major ();
  let sim0 = E.prepare spec in
  let res0, wall0 =
    timed (fun () ->
        while Sim.Simulator.step sim0 do
          ()
        done;
        Sim.Simulator.finish sim0)
  in
  Obs.Registry.reset ();
  Obs.set_enabled true;
  let a =
    { round_s = 0.0; rounds_n = 0; complete_s = 0.0; other_s = 0.0; minor = 0.0; major = 0.0 }
  in
  let log = Pb_check.new_log () in
  Gc.full_major ();
  let tw = build ~wrap:(fun s -> Pb_check.record log (instrument a s)) spec in
  let step_s = ref 0.0 and more = ref true in
  let t0 = now () in
  while !more do
    let t1 = now () in
    more := Sim.Simulator.step tw.sim;
    step_s := !step_s +. (now () -. t1)
  done;
  let res = Sim.Simulator.finish tw.sim in
  let twall = now () -. t0 in
  Obs.set_enabled false;
  let report = res.Sim.Simulator.report in
  let traced_failed = ref 0 in
  verify (fun () ->
      if not (Pb_check.same_report report res0.Sim.Simulator.report) then
        raise (Check_failed "traced run differs from Harness.Experiment.run");
      check_ok "ledger_check" (Sim.Simulator.ledger_check tw.sim);
      let s = check_ok "placement checker" (check_log tw log report) in
      if s.Pb_check.shared_switch <> [] then incr traced_failed;
      path_check spec log report);
  let self = !step_s -. a.round_s -. a.complete_s -. a.other_s in
  let rounds = float_of_int (max 1 a.rounds_n) in
  let layers =
    List.map (fun (n, v) -> metric n "s" v) tw.parts
    @ [
        metric "trace.setup_s" "s" tw.setup;
        metric "schedulers.round_s" "s" a.round_s;
        metric "schedulers.rounds" "count" (float_of_int a.rounds_n);
        metric "schedulers.complete_s" "s" a.complete_s;
        metric "schedulers.other_s" "s" a.other_s;
        metric "sim.self_s" "s" self;
        metric "sim.events" "count" (float_of_int (Sim.Simulator.events_processed tw.sim));
        metric "sim.tasks_killed" "count" (float_of_int report.tasks_killed);
        metric "sim.requeues" "count" (float_of_int report.requeues);
        metric "trace.wall_s" "s" twall;
        metric "trace.unattributed_s" "s" (twall -. a.round_s -. a.complete_s -. self);
        metric "trace.overhead_share" "ratio" ((twall -. wall0) /. wall0);
        metric "gc.minor_words_per_round" "words" (a.minor /. rounds);
        metric "gc.major_words_per_round" "words" (a.major /. rounds);
      ]
    @ Pb_layers.from_obs () @ latencies lat
  in
  Printf.printf "untraced wall %.3f s, traced wall %.3f s\n" wall0 twall;
  {
    correct = !correct;
    attempted = base.attempted + 1;
    failed = base.failed + !traced_failed;
    metrics = Pb_layers.complete layers;
  }
