(* The per-layer metrics of the traced run, in one fixed list: every
   workload reports all of them, with 0 for a layer it does not exercise
   (the journal and the socket front-end on a simulation, the world
   build and the fault path where the workload has none). *)

open Pb_util

let names =
  [
    (* world build, set beside setup_s *)
    ("topology.fat_tree_s", "s");
    ("sim.cluster_s", "s");
    ("workload.trace_gen_s", "s");
    ("sim.scenario_s", "s");
    ("schedulers.create_s", "s");
    ("sim.init_s", "s");
    ("trace.setup_s", "s");
    (* the event loop, set beside wall_s *)
    ("schedulers.round_s", "s");
    ("schedulers.rounds", "count");
    ("schedulers.complete_s", "s");
    ("schedulers.other_s", "s");
    ("sim.self_s", "s");
    ("sim.events", "count");
    ("sim.tasks_killed", "count");
    ("sim.requeues", "count");
    ("trace.wall_s", "s");
    ("trace.unattributed_s", "s");
    ("trace.overhead_share", "ratio");
    (* latency of a round, or of an ack at the base rate *)
    ("latency.p50_ms", "ms");
    ("latency.p95_ms", "ms");
    ("latency.p99_ms", "ms");
    (* inside a HIRE round *)
    ("hire.build_s", "s");
    ("hire.build_p99_ms", "ms");
    ("flow.solve_s", "s");
    ("flow.solve_p99_ms", "ms");
    ("hire.round_other_s", "s");
    ("hire.net.full_rebuild_share", "ratio");
    ("hire.net.touched_arc_ratio", "ratio");
    ("hire.net.arcs_mean", "arcs");
    ("flow.queue.bucket_share", "ratio");
    ("gc.minor_words_per_round", "words");
    ("gc.major_words_per_round", "words");
    (* the admission server *)
    ("server.protocol_us", "us");
    ("server.submit_us", "us");
    ("journal.barrier_p50_ms", "ms");
    ("journal.barrier_p99_ms", "ms");
    ("journal.records_per_barrier", "records");
    ("server.flush_p50_ms", "ms");
    ("server.flush_p99_ms", "ms");
    ("server.flush_batch", "admissions");
    ("server.ack_stalled_share", "ratio");
    ("server.net_ms", "ms");
    ("recovery.records_replayed", "records");
    ("gen.lateness_p99_ms", "ms");
  ]

(* Order [ms] by [names], filling the layers a workload lacks with 0. *)
let complete ms =
  List.iter
    (fun m -> if not (List.mem_assoc m.name names) then failwith ("unlisted layer metric " ^ m.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    names

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Layer metrics read from the histograms and counters the program
   registers in [Obs] while tracing is on. *)
let from_obs () =
  let h = Obs.Registry.histogram and c name = float_of_int (Obs.Registry.counter_value (Obs.Registry.counter name)) in
  let sum name = Obs.Histogram.sum (h name) in
  let build = sum "hire.build_s" and solve = sum "flow.solve_s" in
  let full = c "hire.net.full_rebuilds" and patched = c "hire.net.patched_builds" in
  let bucket = c "flow.queue.bucket" and heap = c "flow.queue.heap" in
  [
    metric "hire.build_s" "s" build;
    metric "hire.build_p99_ms" "ms" (1e3 *. Obs.Histogram.quantile (h "hire.build_s") 0.99);
    metric "flow.solve_s" "s" solve;
    metric "flow.solve_p99_ms" "ms" (1e3 *. Obs.Histogram.quantile (h "flow.solve_s") 0.99);
    metric "hire.round_other_s" "s" (sum "hire.round_s" -. build -. solve);
    metric "hire.net.full_rebuild_share" "ratio" (ratio full (full +. patched));
    metric "hire.net.touched_arc_ratio" "ratio"
      (ratio (sum "hire.net.touched_arcs") (sum "hire.net.total_arcs"));
    metric "hire.net.arcs_mean" "arcs" (Obs.Histogram.mean (h "hire.net.total_arcs"));
    metric "flow.queue.bucket_share" "ratio" (ratio bucket (bucket +. heap));
  ]
