(* Independent placement checker for the simulation workloads.

   The benchmark wraps the scheduler's closures and logs what crosses
   the scheduler interface: submissions, each round's placements and
   cancellations, task completions (which the simulator also reports for
   tasks killed by a node failure), node events and dropped groups.
   [check] replays that log against ledgers of its own — server demand
   per machine, switch demand per (switch, service) with the
   registration part charged once per service, liveness, and per-group
   task counts — and checks every round that

   - no live machine is over capacity, and nothing lands on a dead one;
   - no machine receives more than one new task in a round (the
     capacity-1 machine-to-sink arcs of the flow network);
   - no task group has more tasks placed than it requested;
   - the running tasks of a network group sit on distinct switches.

   At the end every task group must be satisfied or cancelled, no task
   may still hold resources, and the counts must equal the simulator's
   own report.  None of this reads the program's ledgers.

   A second instance of a network group on one switch is a known fault
   of the program (a fault-requeued group is placed where the same group
   still runs; FOUND in CHANGES.md).  It is collected in
   [summary.shared_switch] rather than raised, so the replay goes on and
   every other rule is still checked on the rest of the cell; the caller
   counts such a cell as a failed operation. *)

module PR = Hire.Poly_req
module SI = Sim.Scheduler_intf
module Vec = Prelude.Vec

type ev =
  | Submit of float * PR.t
  | Round of float * SI.round_result
  | Complete of float * PR.task_group * int
  | Node of float * int * bool
  | Drop of float * int

type log = { mutable evs : ev list (* newest first *) }

let new_log () = { evs = [] }
let add log e = log.evs <- e :: log.evs

(* [record log s] logs every call across the scheduler interface and
   forwards it unchanged. *)
let record log (s : SI.t) : SI.t =
  {
    s with
    submit =
      (fun ~time p ->
        add log (Submit (time, p));
        s.submit ~time p);
    round =
      (fun ~time ->
        let r = s.round ~time in
        add log (Round (time, r));
        r);
    on_task_complete =
      (fun ~time ~tg ~machine ->
        add log (Complete (time, tg, machine));
        s.on_task_complete ~time ~tg ~machine);
    on_node_event =
      (fun ~time ~node ~up ->
        add log (Node (time, node, up));
        s.on_node_event ~time ~node ~up);
    drop_task_group =
      (fun ~time ~tg_id ->
        add log (Drop (time, tg_id));
        s.drop_task_group ~time ~tg_id);
  }

(* ---- path independence ----------------------------------------------- *)

(* The log projected onto identifiers and simulated times: two runs of
   the same cell must agree on it exactly. *)
type pev =
  | P_submit of float * int * int list
  | P_round of float * (int * int) list * int list * float
  | P_complete of float * int * int
  | P_node of float * int * bool
  | P_drop of float * int

let project log =
  List.rev_map
    (function
      | Submit (t, p) ->
          P_submit (t, p.PR.job_id, List.map (fun (g : PR.task_group) -> g.tg_id) p.task_groups)
      | Round (t, r) ->
          P_round
            ( t,
              List.map (fun (p : SI.placement) -> (p.tg.PR.tg_id, p.machine)) r.SI.placements,
              List.map (fun (g : PR.task_group) -> g.tg_id) r.cancelled,
              r.think )
      | Complete (t, g, m) -> P_complete (t, g.PR.tg_id, m)
      | Node (t, n, up) -> P_node (t, n, up)
      | Drop (t, id) -> P_drop (t, id))
    log.evs

(* Report equality with the measured solver wall times masked: those
   differ between any two runs. *)
let same_report (a : Sim.Metrics.report) (b : Sim.Metrics.report) =
  let raw = Obs.Histogram.to_raw in
  let blank = Obs.Histogram.create () in
  let mask (r : Sim.Metrics.report) =
    {
      r with
      placement_latency = blank;
      solver_wall = blank;
      time_to_reschedule = blank;
      node_downtime = blank;
    }
  in
  raw a.placement_latency = raw b.placement_latency
  && raw a.time_to_reschedule = raw b.time_to_reschedule
  && raw a.node_downtime = raw b.node_downtime
  && Obs.Histogram.count a.solver_wall = Obs.Histogram.count b.solver_wall
  && mask a = mask b

(* ---- ledger replay ---------------------------------------------------- *)

type tg_state = {
  count : int;
  network : bool;
  arrival : float;
  mutable first_full : float option;  (* first time all tasks were placed *)
  mutable net : int;  (* placed minus killed *)
  mutable dropped : bool;  (* retry budget exhausted *)
  mutable round_cancelled : bool;  (* cancelled by a round while short *)
}

type switch_state = {
  sw_used : Vec.t;
  svc_count : (string, int) Hashtbl.t;
  svc_reg : (string, Vec.t) Hashtbl.t;
}

type summary = {
  tgs_total : int;
  tgs_satisfied : int;
  tgs_cancelled : int;
  tasks_killed : int;
  node_fails : int;
  rounds : int;
  placements : int;
  jobs_total : int;
  inc_jobs_served : int;
  placement_latency : float list;  (* submission to first full placement, sim s *)
  shared_switch : string list;  (* network groups with two instances on a switch *)
}

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let fits used cap =
  let ok = ref true in
  Array.iteri
    (fun i c -> if used.(i) > c +. (1e-6 *. (1.0 +. Float.abs c)) then ok := false)
    cap;
  !ok

let vec_close a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Float.abs (x -. b.(i)) > 1e-9 *. (1.0 +. Float.abs x) then ok := false)
        a;
      !ok)

(* Replay [log] for a cell on [topo] with the given capacities; returns
   the independently computed summary or raises [Violation]. *)
let replay ~topo ~server_cap ~switch_cap log =
  let is_server = Topology.Fat_tree.is_server topo in
  let tgs : (int, tg_state) Hashtbl.t = Hashtbl.create 1024 in
  let jobs : (int, PR.t) Hashtbl.t = Hashtbl.create 256 in
  let server_used : (int, Vec.t) Hashtbl.t = Hashtbl.create 256 in
  let switches : (int, switch_state) Hashtbl.t = Hashtbl.create 64 in
  let running : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let on_machine : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let dead : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let recent_completes = ref [] and shared_switch = ref [] in
  let kills = ref 0 and downs = ref 0 and rounds = ref 0 and placements = ref 0 in
  let get tbl k mk =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        let v = mk () in
        Hashtbl.replace tbl k v;
        v
  in
  let bump tbl k d = Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let switch_of sw =
    get switches sw (fun () ->
        {
          sw_used = Vec.zero (Array.length switch_cap);
          svc_count = Hashtbl.create 4;
          svc_reg = Hashtbl.create 4;
        })
  in
  (* Switch-side demand one more instance of [tg] adds on [sw]: the
     registration part only with the service's first instance there.
     The workloads run [hire], which always places shared. *)
  let switch_charge sw (tg : PR.task_group) ~shared =
    match tg.kind with
    | PR.Server_tg -> fail "server group %d placed on switch %d" tg.tg_id sw
    | PR.Network_tg ni ->
        if not shared then fail "unshared placement of group %d (not modelled)" tg.tg_id;
        let st = switch_of sw in
        let first =
          Option.value ~default:0 (Hashtbl.find_opt st.svc_count ni.service) = 0
        in
        if first then Vec.add ni.per_switch tg.demand else Vec.copy tg.demand
  in
  let release (tg : PR.task_group) machine ~time =
    let key = (tg.tg_id, machine) in
    let n = Option.value ~default:0 (Hashtbl.find_opt running key) in
    if n <= 0 then fail "t=%.6f: task of group %d ended on %d where none runs" time tg.tg_id machine;
    Hashtbl.replace running key (n - 1);
    bump on_machine machine (-1);
    match tg.kind with
    | PR.Server_tg ->
        let u = get server_used machine (fun () -> Vec.zero (Array.length server_cap)) in
        Vec.sub_into u tg.demand
    | PR.Network_tg ni ->
        let st = switch_of machine in
        let c = Option.value ~default:0 (Hashtbl.find_opt st.svc_count ni.service) in
        Vec.sub_into st.sw_used tg.demand;
        if c <= 1 then begin
          (match Hashtbl.find_opt st.svc_reg ni.service with
          | Some reg -> Vec.sub_into st.sw_used reg
          | None -> ());
          Hashtbl.remove st.svc_reg ni.service;
          Hashtbl.remove st.svc_count ni.service
        end
        else Hashtbl.replace st.svc_count ni.service (c - 1)
  in
  let place ~time ~seen (p : SI.placement) =
    let tg = p.tg and m = p.machine in
    let st =
      match Hashtbl.find_opt tgs tg.tg_id with
      | Some st -> st
      | None -> fail "t=%.6f: placement for unknown group %d" time tg.tg_id
    in
    if Hashtbl.mem dead m then fail "t=%.6f: group %d placed on dead node %d" time tg.tg_id m;
    if Hashtbl.mem seen m then fail "t=%.6f: machine %d got two new tasks in one round" time m;
    Hashtbl.replace seen m ();
    if st.dropped then fail "t=%.6f: dropped group %d placed" time tg.tg_id;
    st.net <- st.net + 1;
    st.round_cancelled <- false;
    if st.net > st.count then
      fail "t=%.6f: group %d has %d tasks placed, requested %d" time tg.tg_id st.net st.count;
    if st.net = st.count && st.first_full = None then st.first_full <- Some time;
    let key = (tg.tg_id, m) in
    let already = Option.value ~default:0 (Hashtbl.find_opt running key) in
    (match tg.kind with
    | PR.Server_tg ->
        if not (is_server m) then fail "server group %d placed on switch %d" tg.tg_id m;
        let u = get server_used m (fun () -> Vec.zero (Array.length server_cap)) in
        Vec.add_into u tg.demand;
        if not (fits u server_cap) then fail "t=%.6f: server %d over capacity" time m
    | PR.Network_tg ni ->
        if is_server m then fail "network group %d placed on server %d" tg.tg_id m;
        if already > 0 then
          shared_switch :=
            Printf.sprintf "t=%.6f: network group %d has two instances on switch %d" time
              tg.tg_id m
            :: !shared_switch;
        let charge = switch_charge m tg ~shared:p.shared in
        (match p.charged with
        | Some v when not (vec_close v charge) ->
            fail "t=%.6f: switch %d charged a demand the sharing model disagrees with" time m
        | _ -> ());
        let sw = switch_of m in
        let c = Option.value ~default:0 (Hashtbl.find_opt sw.svc_count ni.service) in
        if c = 0 then Hashtbl.replace sw.svc_reg ni.service (Vec.copy ni.per_switch);
        Hashtbl.replace sw.svc_count ni.service (c + 1);
        Vec.add_into sw.sw_used charge;
        if not (fits sw.sw_used switch_cap) then fail "t=%.6f: switch %d over capacity" time m);
    Hashtbl.replace running key (already + 1);
    bump on_machine m 1;
    incr placements
  in
  List.iter
    (fun ev ->
      (match ev with Complete _ -> () | Node (_, _, false) -> () | _ -> recent_completes := []);
      match ev with
      | Submit (time, poly) ->
          if poly.PR.job_id >= 0 then begin
            Hashtbl.replace jobs poly.job_id poly;
            List.iter
              (fun (g : PR.task_group) ->
                if Hashtbl.mem tgs g.tg_id then fail "t=%.6f: group %d submitted twice" time g.tg_id;
                Hashtbl.replace tgs g.tg_id
                  {
                    count = g.count;
                    network = PR.is_network g;
                    arrival = time;
                    first_full = None;
                    net = 0;
                    dropped = false;
                    round_cancelled = false;
                  })
              poly.task_groups
          end
          else
            List.iter
              (fun (g : PR.task_group) ->
                match Hashtbl.find_opt tgs g.tg_id with
                | None -> fail "t=%.6f: retry of unknown group %d" time g.tg_id
                | Some st ->
                    if st.dropped then fail "t=%.6f: retry of dropped group %d" time g.tg_id)
              poly.task_groups
      | Round (time, r) ->
          incr rounds;
          let seen = Hashtbl.create 16 in
          List.iter (place ~time ~seen) r.SI.placements;
          List.iter
            (fun (g : PR.task_group) ->
              match Hashtbl.find_opt tgs g.tg_id with
              | Some st -> if st.net < st.count then st.round_cancelled <- true
              | None -> fail "t=%.6f: cancel of unknown group %d" time g.tg_id)
            r.cancelled
      | Complete (time, tg, machine) ->
          release tg machine ~time;
          recent_completes := (time, tg.PR.tg_id, machine) :: !recent_completes
      | Node (time, node, false) ->
          (* The simulator reports the tasks a failure kills as
             completions on the failed node, right before the event. *)
          List.iter
            (fun (t, tg_id, m) ->
              if t = time && m = node then begin
                incr kills;
                match Hashtbl.find_opt tgs tg_id with
                | Some st ->
                    st.net <- st.net - 1;
                    st.round_cancelled <- false
                | None -> ()
              end)
            !recent_completes;
          recent_completes := [];
          if Option.value ~default:0 (Hashtbl.find_opt on_machine node) <> 0 then
            fail "t=%.6f: node %d failed with tasks still on it" time node;
          if Hashtbl.mem dead node then fail "t=%.6f: node %d failed twice" time node;
          Hashtbl.replace dead node ();
          incr downs
      | Node (time, node, true) ->
          if not (Hashtbl.mem dead node) then fail "t=%.6f: live node %d recovered" time node;
          Hashtbl.remove dead node
      | Drop (time, tg_id) -> (
          match Hashtbl.find_opt tgs tg_id with
          | Some st -> st.dropped <- true
          | None -> fail "t=%.6f: drop of unknown group %d" time tg_id))
    (List.rev log.evs);
  Hashtbl.iter
    (fun m n -> if n <> 0 then fail "machine %d still runs %d task(s) at the end" m n)
    on_machine;
  let satisfied = ref 0 and cancelled = ref 0 in
  let state_of id = Hashtbl.find tgs id in
  Hashtbl.iter
    (fun id st ->
      let sat = st.net = st.count and can = st.dropped || st.round_cancelled in
      if sat then incr satisfied;
      if can then incr cancelled;
      if not (sat || can) then
        fail "group %d ends neither satisfied nor cancelled (%d of %d placed)" id st.net st.count)
    tgs;
  let inc_served =
    Hashtbl.fold
      (fun _ (poly : PR.t) acc ->
        let net = List.filter (fun (g : PR.task_group) -> (state_of g.tg_id).network) poly.task_groups in
        if net = [] then acc
        else
          let sat = List.exists (fun (g : PR.task_group) -> let s = state_of g.tg_id in s.net = s.count) net in
          let open_ =
            List.exists
              (fun (g : PR.task_group) ->
                let s = state_of g.tg_id in
                s.net <> s.count && not (s.dropped || s.round_cancelled))
              net
          in
          if sat && not open_ then acc + 1 else acc)
      jobs 0
  in
  {
    tgs_total = Hashtbl.length tgs;
    tgs_satisfied = !satisfied;
    tgs_cancelled = !cancelled;
    tasks_killed = !kills;
    node_fails = !downs;
    rounds = !rounds;
    placements = !placements;
    jobs_total = Hashtbl.length jobs;
    inc_jobs_served = inc_served;
    placement_latency =
      Hashtbl.fold
        (fun _ st acc ->
          match st.first_full with Some t -> (t -. st.arrival) :: acc | None -> acc)
        tgs [];
    shared_switch = List.rev !shared_switch;
  }

(* Compare the replayed summary with the simulator's report; [Error]
   names the first disagreement. *)
let against_report s (r : Sim.Metrics.report) =
  let pairs =
    [
      ("tgs_total", s.tgs_total, r.tgs_total);
      ("tgs_satisfied", s.tgs_satisfied, r.tgs_satisfied);
      ("tgs_cancelled", s.tgs_cancelled, r.tgs_cancelled);
      ("tasks_killed", s.tasks_killed, r.tasks_killed);
      ("node_fails", s.node_fails, r.node_fails);
      ("rounds", s.rounds, r.rounds);
      ("jobs_total", s.jobs_total, r.jobs_total);
      ("inc_jobs_served", s.inc_jobs_served, r.inc_jobs_served);
      ( "placement_latency samples",
        List.length s.placement_latency,
        Obs.Histogram.count r.placement_latency );
    ]
  in
  match List.find_opt (fun (_, a, b) -> a <> b) pairs with
  | None -> Ok ()
  | Some (name, a, b) -> Error (Printf.sprintf "%s: checker %d, report %d" name a b)

let check ~topo ~server_cap ~switch_cap log report =
  match replay ~topo ~server_cap ~switch_cap log with
  | exception Violation msg -> Error msg
  | s -> Result.map (fun () -> s) (against_report s report)
