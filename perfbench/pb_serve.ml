(* The serve-open workload: the admission server driven open-loop.

   A server process (this executable with [--serve-child]) runs
   [Server.Admission] with its default configuration — 1 s tick,
   max_batch 64, 20 ms group commit — behind [Server.Net] on a Unix
   socket, over a journaled k=8 HIRE world.  One generator drives it
   over two connections, first at a base offered rate, then with an
   overload burst: every submission has a due send time fixed in advance, is sent when due
   whether or not earlier ones were acknowledged, and its ack latency
   is measured from that due time.  Flushes happen where the server's
   own tick and max_batch triggers put them.

   After the base rung, sampled resubmissions check idempotency,
   a last burst is acknowledged, and the server is killed with SIGKILL;
   the overload rung then runs on a fresh server.  The journal is
   recovered in-process ([Admission.recover]): every acked admission
   must be present, and after a final drain none may still be queued.
   The same submissions are then driven in-process through
   a fresh engine, in the served order and with the served batch
   boundaries (read back from the recovered journal); its flushes and
   [finish] — stepping the served world to exhaustion — are the
   workload's [wall_s], and it must end in exactly the report of the
   recovered world. *)

module A = Server.Admission
module P = Server.Protocol
module J = Server.Json
module Rng = Prelude.Rng
open Pb_util

(* ---- the workload's make-up ----------------------------------------- *)

(* Offered rates, admissions per second, and rung lengths in seconds.
   The base rung gives the ack latencies: 1000 submissions, so the p99
   has ten samples beyond it, at a third of what today's server
   sustains.  The overload rung offers 500 submissions within 0.25 s,
   two to four seconds of the server's work: the rate at which it
   acknowledges them is its admission capacity.  It runs three times,
   each on a fresh server, and the median rate is reported: one
   server's rate moved by a quarter from run to run whether it took 800
   submissions or 2000.  These servers start after the kill: how an
   overload burst falls into batches depends on timing, and replaying
   it would make wall_s and recover_s move with it. *)
let base_rung = (80.0, 12.5)
let overload = (2000.0, 0.25)
let overload_servers = 3

(* A rung meets the service objective when its ack p95 is at most this
   and its last ack arrives within it of the rung's last due time (no
   backlog left growing). *)
let limit_ms = 1000.0

(* An ack is counted as stalled when it waited longer than this; the
   in-process submit + WAL barrier path is far below it, so such a wait
   is a flush run inline by the serve loop. *)
let stall_ms = 25.0

let tail = 32  (* submissions acked just before the kill *)
let server_starts = 15  (* set-up is the median of these *)
let dup_probes = 16  (* sampled idempotent resubmissions *)
let tick_interval = 1.0

(* The served world is fixed, like the server's configuration: its
   seed places the INC-capable switches, and with the run's seed there
   the cost of scheduling the same stream moved by half between runs.
   The inputs drawn from the run's seed are the submissions. *)
let serve_spec =
  {
    Harness.Experiment.default with
    scheduler = "hire";
    mu = 1.0;
    k = 8;
    horizon = 0.0;
    seed = 1;
    inc_capable_fraction = None;
  }

let config = A.default_config

(* Submission [i] of the stream drawn from [seed], in the mix the
   repository's server benchmark submits (bench/bench_server.ml, also
   hire_client's): one to three groups of one to six tasks, 0.5 to 4.0
   cores and memory units each, running 1 to 15 simulated seconds, 30%
   service priority; every fourth asks for INC acceleration ("auto"). *)
let job_spec ~seed i =
  let rng = Rng.create ((seed * 1_000_003) + i) in
  let n_groups = Rng.int_in rng 1 3 in
  let groups =
    List.init n_groups (fun g ->
        {
          Workload.Job.tg_index = g;
          count = Rng.int_in rng 1 6;
          cpu = Rng.float_in rng 0.5 4.0;
          mem = Rng.float_in rng 0.5 4.0;
          duration = Rng.float_in rng 1.0 15.0;
        })
  in
  let priority = if Rng.bernoulli rng 0.3 then Workload.Job.Service else Workload.Job.Batch in
  let inc = if i mod 4 = 0 then P.Auto else P.No_inc in
  { P.priority; groups; inc; client_id = Some (Printf.sprintf "s%d-%d" seed i) }

(* ---- the server process --------------------------------------------- *)

let child ~dir ~sock =
  let engine = A.start ~dir ~config serve_spec in
  let (_ : Sim.Simulator.result) =
    Server.Net.serve ~engine ~listen:(Server.Net.Unix_sock sock) ~tick_interval ()
  in
  exit 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d
      else begin
        let ic = open_in_bin s in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin d in
        output_string oc data;
        close_out oc
      end)
    (Sys.readdir src)

type conn = { fd : Unix.file_descr; buf : Buffer.t; fifo : int Queue.t }

type server = { pid : int; conns : conn array }

let connect sock =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; buf = Buffer.create 4096; fifo = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* Start a server in a fresh state directory; returns it with the time
   from spawning until its socket accepts. *)
let start_server ~root ~n =
  let dir = Filename.concat root (Printf.sprintf "srv%d" n) in
  Unix.mkdir dir 0o755;
  (* Socket paths are short and relative: sun_path holds 108 bytes. *)
  let sock = Filename.concat dir "s.sock" in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-child"; Filename.concat dir "journal"; sock |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let c0 = connect sock in
  let setup = now () -. t0 in
  let c1 = connect sock in
  ({ pid; conns = [| c0; c1 |] }, setup)

let send c line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off = if off < len then go (off + Unix.write_substring c.fd data off (len - off)) in
  go 0

(* Read what [c] has and hand every complete line to [f]. *)
let read_lines c f =
  let chunk = Bytes.create 65536 in
  let n = Unix.read c.fd chunk 0 65536 in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let data = Buffer.contents c.buf in
  let rec split start =
    match String.index_from_opt data start '\n' with
    | Some i ->
        f (String.sub data start (i - start));
        split (i + 1)
    | None ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf data start (String.length data - start)
  in
  split 0

let request srv line =
  let c = srv.conns.(0) in
  send c line;
  let reply = ref None in
  while !reply = None do
    read_lines c (fun l -> reply := Some l)
  done;
  Option.get !reply

let stop_server srv =
  (try ignore (request srv "{\"op\":\"shutdown\"}")
   with _ -> ( try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) srv.conns;
  ignore (Unix.waitpid [] srv.pid)

(* ---- the open-loop stream ------------------------------------------- *)

type sub = {
  spec : P.job_spec;
  due : float;
  mutable sent : float;
  mutable acked : float;  (* nan until acknowledged *)
  mutable id : int;  (* -1 until admitted *)
  mutable error : string;
}

let parse_ack line =
  match J.parse line with
  | Ok v when J.member "ok" v = Some (J.Bool true) -> (
      match (Option.bind (J.member "id" v) J.to_int, J.member "duplicate" v) with
      | Some id, Some (J.Bool dup) -> Ok (id, dup)
      | _ -> Error ("unexpected reply " ^ line))
  | Ok _ | Error _ -> Error line

(* Drive [subs] (due times already set) open-loop; wait at most [grace]
   seconds past the last due time for the acks. *)
let drive_stream srv subs ~grace =
  let n = Array.length subs in
  let next = ref 0 and outstanding = ref 0 and dups = ref 0 in
  let on_line c line =
    match Queue.take_opt c.fifo with
    | None -> failwith "reply with no submission outstanding"
    | Some i ->
        let s = subs.(i) in
        s.acked <- now ();
        decr outstanding;
        (match parse_ack line with
        | Ok (id, dup) ->
            s.id <- id;
            if dup then incr dups
        | Error e -> s.error <- e)
  in
  let last_due = if n = 0 then now () else subs.(n - 1).due in
  let stop = last_due +. grace in
  while (!next < n || !outstanding > 0) && now () < stop do
    let t = now () in
    while !next < n && subs.(!next).due <= t do
      let s = subs.(!next) in
      let c = srv.conns.(!next mod 2) in
      s.sent <- now ();
      send c (P.render_submit s.spec);
      Queue.push !next c.fifo;
      incr outstanding;
      incr next
    done;
    let wake = if !next < n then subs.(!next).due else stop in
    let timeout = Float.max 0.0 (wake -. now ()) in
    let fds = Array.to_list (Array.map (fun c -> c.fd) srv.conns) in
    let ready, _, _ =
      try Unix.select fds [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter (fun c -> if List.mem c.fd ready then read_lines c (on_line c)) srv.conns
  done;
  !dups

type rung = {
  rate : float;
  achieved : float;  (* acks per second over the rung *)
  lat : float array;  (* sorted ack latencies, seconds *)
  drain : float;  (* last ack minus last due time, seconds *)
  meets : bool;
}

let rung_of rate subs =
  let lat = Array.map (fun s -> s.acked -. s.due) subs in
  Array.sort Float.compare lat;
  let last_ack = Array.fold_left (fun a s -> Float.max a s.acked) neg_infinity subs in
  let drain = last_ack -. subs.(Array.length subs - 1).due in
  let q = quantile_sorted lat 0.95 in
  let all_ok = Array.for_all (fun s -> s.id >= 0) subs in
  let achieved = float_of_int (Array.length subs) /. (last_ack -. subs.(0).due) in
  { rate; achieved; lat; drain; meets = all_ok && 1e3 *. q <= limit_ms && 1e3 *. drain <= limit_ms }

(* ---- in-process drive ----------------------------------------------- *)

type drive_stats = {
  d_wall : float;
  d_report : Sim.Metrics.report;
  protocol : samples;
  submit : samples;
  barrier : samples;
  flush : samples;
  batch_sizes : int list;
  minor_words : float;
  major_words : float;
}

(* Replay the served stream through a fresh engine in [dir]: submit in
   admission order with one WAL barrier per submission (the serve loop's
   cadence at these rates), flush at the served batch boundaries, and
   finish.  [spec_of] maps an admission id to its submission. *)
let drive_in_process ~dir ~batches ~spec_of =
  let engine = A.start ~dir ~config serve_spec in
  let protocol = samples () and submit = samples () and barrier = samples () in
  let flush = samples () in
  let mi0, ma0 = alloc_words () in
  let t0 = now () in
  let nb = List.length batches in
  List.iteri
    (fun bi ids ->
      List.iter
        (fun id ->
          let line = P.render_submit (spec_of id) in
          let t1 = now () in
          let js =
            match P.parse_request line with
            | Ok (P.Submit js) -> js
            | _ -> failwith "rendered submission does not parse"
          in
          ignore (P.ok [ ("id", J.Num (float_of_int id)); ("duplicate", J.Bool false) ]);
          let t2 = now () in
          (match A.submit engine js with
          | A.Admitted { admit_id; duplicate = false } when admit_id = id -> ()
          | _ -> failwith (Printf.sprintf "in-process drive: admission %d not reproduced" id));
          let t3 = now () in
          if not (A.ack_barrier engine) then failwith "in-process drive: barrier failed";
          let t4 = now () in
          push protocol (t2 -. t1);
          push submit (t3 -. t2);
          push barrier (t4 -. t3))
        ids;
      if bi < nb - 1 then begin
        let n, dt = timed (fun () -> A.flush engine) in
        if n <> List.length ids then failwith "in-process drive: batch size differs";
        push flush dt
      end)
    batches;
  (* The last batch is the one still pending at the kill; [finish]
     flushes it. *)
  let res, dt = timed (fun () -> A.finish engine) in
  push flush dt;
  let d_wall = now () -. t0 in
  let mi1, ma1 = alloc_words () in
  {
    d_wall;
    d_report = res.Sim.Simulator.report;
    protocol;
    submit;
    barrier;
    flush;
    batch_sizes = List.map List.length batches;
    minor_words = mi1 -. mi0;
    major_words = ma1 -. ma0;
  }

(* Submission-to-full-placement latency of every task group, simulated
   seconds, recomputed from the journal in [dir]: a group arrives with
   its [Inject] batch and is placed in full by the [Round] record that
   brings its placements to its task count. *)
let placement_latencies dir =
  match Journal.Source.load ~path:(Filename.concat dir "wal.bin") with
  | Error e -> failwith ("journal: " ^ Journal.Error.to_string e)
  | Ok loaded ->
      let polys = Hashtbl.create 4096 and groups = Hashtbl.create 8192 in
      let lat = ref [] in
      Array.iter
        (fun body ->
          match Sim.Wal.decode body with
          | Sim.Wal.Admit { admit_id; poly; _ } -> Hashtbl.replace polys admit_id poly
          | Sim.Wal.Inject { time; admit_ids } ->
              List.iter
                (fun id ->
                  List.iter
                    (fun (g : Hire.Poly_req.task_group) ->
                      Hashtbl.replace groups g.tg_id (g.count, ref 0, time))
                    (Hashtbl.find polys id).Hire.Poly_req.task_groups)
                admit_ids
          | Sim.Wal.Round { time; placements; _ } ->
              List.iter
                (fun (tg_id, _) ->
                  match Hashtbl.find_opt groups tg_id with
                  | Some (count, placed, arrival) ->
                      incr placed;
                      if !placed = count then lat := (time -. arrival) :: !lat
                  | None -> failwith (Printf.sprintf "placement of unknown group %d" tg_id))
                placements
          | _ -> ())
        loaded.records;
      !lat

(* ---- the run -------------------------------------------------------- *)

exception Check_failed of string

let check cond msg = if not cond then raise (Check_failed msg)

let run ~seed ~traced =
  let root = Filename.concat ".hirebench" (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (try Unix.mkdir ".hirebench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf root;
  Unix.mkdir root 0o755;
  let live = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !live with
      | Some srv -> (
          (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ())
      | None -> ());
      rm_rf root)
  @@ fun () ->
  (* Set-up: [server_starts] server starts, the last one serves. *)
  let setups = ref [] in
  let serving = server_starts - 1 in
  for n = 0 to serving - 1 do
    let srv, dt = start_server ~root ~n in
    live := Some srv;
    setups := dt :: !setups;
    stop_server srv;
    live := None
  done;
  let srv, dt = start_server ~root ~n:serving in
  live := Some srv;
  setups := dt :: !setups;
  (* The stream: the base rung, then (after the kill) the overload rung,
     each starting once the previous acks are in. *)
  let index = ref 0 in
  let make_subs ~start ~rate ~count =
    Array.init count (fun j ->
        let i = !index + j in
        {
          spec = job_spec ~seed i;
          due = start +. (float_of_int j /. rate);
          sent = nan;
          acked = nan;
          id = -1;
          error = "";
        })
  in
  let stream =
    let rate, secs = base_rung in
    let count = int_of_float (Float.round (rate *. secs)) in
    let subs = make_subs ~start:(now () +. 0.05) ~rate ~count in
    index := !index + count;
    let dups = drive_stream srv subs ~grace:60.0 in
    check (dups = 0) "a fresh submission was answered as a duplicate";
    subs
  in
  let base = rung_of (fst base_rung) stream in
  (* Generator lateness is taken on the base rung, where the latency
     metrics come from. *)
  let lateness = samples () in
  Array.iter (fun s -> if not (Float.is_nan s.sent) then push lateness (s.sent -. s.due)) stream;
  (* Idempotency: resubmit sampled keys; each must come back as a
     duplicate of its original admission. *)
  let pick = Rng.create (seed + 17) in
  let probes =
    List.init dup_probes (fun _ ->
        let s = stream.(Rng.int pick (Array.length stream)) in
        let t0 = now () in
        let reply = request srv (P.render_submit s.spec) in
        (s, parse_ack reply, now () -. t0))
  in
  (* The fixed kill point: everything so far injected, then a last
     burst, all acknowledged — normally still queued when the server
     dies. *)
  ignore (request srv "{\"op\":\"drain\"}");
  let burst = make_subs ~start:(now ()) ~rate:1e9 ~count:tail in
  index := !index + tail;
  ignore (drive_stream srv burst ~grace:60.0);
  let server_rss = peak_rss_mb ~pid:(string_of_int srv.pid) () in
  Unix.kill srv.pid Sys.sigkill;
  ignore (Unix.waitpid [] srv.pid);
  live := None;
  (* The overload rung, on fresh servers, each with its own part of
     the stream. *)
  let overs =
    List.init overload_servers (fun i ->
        let ksrv, _ = start_server ~root ~n:(serving + 1 + i) in
        live := Some ksrv;
        let rate, secs = overload in
        let count = int_of_float (Float.round (rate *. secs)) in
        let subs = make_subs ~start:(now () +. 0.05) ~rate ~count in
        index := !index + count;
        ignore (drive_stream ksrv subs ~grace:60.0);
        Unix.kill ksrv.pid Sys.sigkill;
        ignore (Unix.waitpid [] ksrv.pid);
        live := None;
        (subs, rung_of rate subs))
  in
  let over_rungs = List.map snd overs in
  let rungs = base :: over_rungs in
  let subs = Array.append stream burst in
  let all_subs = Array.concat (subs :: List.map fst overs) in
  let attempted = Array.length all_subs + dup_probes in
  let failed_subs = Array.to_list all_subs |> List.filter (fun s -> s.id < 0) in
  let failed_probes =
    List.filter (fun (_, r, _) -> match r with Ok _ -> false | Error _ -> true) probes
  in
  let failed = List.length failed_subs + List.length failed_probes in
  List.iter
    (fun s ->
      prerr_endline
        (Printf.sprintf "hirebench: submission failed: %s"
           (if s.error = "" then "no ack" else s.error)))
    failed_subs;
  let correct = ref true in
  let verify f =
    try f () with Check_failed msg ->
      correct := false;
      prerr_endline ("hirebench: check failed: " ^ msg)
  in
  (* Acks: one per submission, admission ids unique on each server. *)
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun (over_subs, _) ->
      verify (fun () ->
          let over_ids = Hashtbl.create 1024 in
          Array.iter
            (fun s ->
              if s.id >= 0 then begin
                check (not (Hashtbl.mem over_ids s.id))
                  (Printf.sprintf "admission id %d acked twice" s.id);
                Hashtbl.replace over_ids s.id ()
              end)
            over_subs))
    overs;
  verify (fun () ->
      Array.iter
        (fun s ->
          if s.id >= 0 then begin
            check (not (Hashtbl.mem by_id s.id)) (Printf.sprintf "admission id %d acked twice" s.id);
            Hashtbl.replace by_id s.id s
          end)
        subs);
  verify (fun () ->
      List.iter
        (fun ((s : sub), r, _) ->
          match r with
          | Ok (id, dup) ->
              check (dup && id = s.id)
                (Printf.sprintf "resubmission of admission %d answered id=%d duplicate=%b" s.id
                   id dup)
          | Error _ -> ())
        probes);
  (* Recovery after SIGKILL, timed three times: twice on copies of the
     journal (a recovered engine appends to it), then on the journal
     itself, which the checks below go on with. *)
  let journal =
    Filename.concat (Filename.concat root (Printf.sprintf "srv%d" serving)) "journal"
  in
  let recover_from dir =
    Gc.full_major ();
    timed (fun () -> A.recover ~dir ~config ())
  in
  let copies =
    List.init 2 (fun i ->
        let dir = Filename.concat root (Printf.sprintf "copy%d" i) in
        copy_dir journal dir;
        snd (recover_from dir))
  in
  let r, dt = recover_from journal in
  let recover_s = median_list (dt :: copies) in
  let engine = r.A.engine in
  let status id = A.status engine id in
  verify (fun () ->
      Hashtbl.iter
        (fun id _ ->
          check (status id <> None) (Printf.sprintf "acked admission %d lost across the kill" id))
        by_id);
  (* Batch boundaries as served: admissions sharing an injection time
     went in one flush; the rest were pending at the kill. *)
  let ids = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) by_id []) in
  let batches =
    let groups = Hashtbl.create 64 and pending = ref [] and order = ref [] in
    List.iter
      (fun id ->
        match status id with
        | Some { A.injected_at = Some t; _ } ->
            if not (Hashtbl.mem groups t) then order := t :: !order;
            Hashtbl.replace groups t (id :: Option.value ~default:[] (Hashtbl.find_opt groups t))
        | _ -> pending := id :: !pending)
      ids;
    List.map (fun t -> List.rev (Hashtbl.find groups t)) (List.rev !order) @ [ List.rev !pending ]
  in
  verify (fun () ->
      check (List.concat batches = ids) "served batches are not contiguous in admission order";
      check (r.A.pending_recovered = List.length (List.nth batches (List.length batches - 1)))
        "recovered pending queue differs from the admissions never injected");
  (* Final drain: nothing acked may stay queued. *)
  ignore (A.flush engine);
  verify (fun () ->
      List.iter
        (fun id ->
          match status id with
          | Some st -> check (st.A.phase <> "queued") (Printf.sprintf "admission %d still queued" id)
          | None -> ())
        ids);
  let recovered = A.finish engine in
  (* The served stream, driven in-process, twice: a drive is only a few
     seconds of work, and its WAL fsyncs make single drives of one run
     differ by a fifth. *)
  let spec_of id = (Hashtbl.find by_id id).spec in
  let drives =
    List.init 2 (fun i ->
        Gc.full_major ();
        let d =
          drive_in_process ~dir:(Filename.concat root (Printf.sprintf "drive%d" i)) ~batches
            ~spec_of
        in
        verify (fun () ->
            check
              (Pb_check.same_report d.d_report recovered.Sim.Simulator.report)
              "in-process drive ends in a different report than the recovered server");
        d)
  in
  let d = List.hd drives in
  let placement =
    match placement_latencies (Filename.concat root "drive0") with
    | l -> l
    | exception Failure msg ->
        correct := false;
        prerr_endline ("hirebench: check failed: " ^ msg);
        []
  in
  verify (fun () ->
      check
        (List.length placement = Obs.Histogram.count d.d_report.placement_latency)
        "placement latencies from the journal disagree with the report");
  List.iter
    (fun g ->
      Printf.printf "rung %.0f/s: n=%d p50=%.3f ms p95=%.3f ms p99=%.3f ms drain=%.1f ms %s\n" g.rate
        (Array.length g.lat)
        (1e3 *. quantile_sorted g.lat 0.5)
        (1e3 *. quantile_sorted g.lat 0.95)
        (1e3 *. quantile_sorted g.lat 0.99)
        (1e3 *. g.drain)
        (if g.meets then "meets" else "misses"))
    rungs;
  Printf.printf "recovered: %d records replayed, %d pending restored; %d batches\n"
    r.A.replayed r.A.pending_recovered (List.length batches);
  Printf.printf "drive flush time (s): %s\n"
    (String.concat " " (List.map (fun d -> Printf.sprintf "%.3f" (sum d.flush)) drives));
  print_dist "placement latency (sim s)" placement;
  let report = d.d_report in
  let e2e =
    [
      metric "setup_s" "s" (median_list !setups);
      metric "wall_s" "s" (median_list (List.map (fun d -> sum d.flush) drives));
      metric "peak_rss_mb" "MiB" server_rss;
      metric "inc_jobs_served" "jobs" (float_of_int report.inc_jobs_served);
      metric "placement_mean_sim_s" "sim_s" (mean_list placement);
      metric "jobs_per_s" "1/s" (median_list (List.map (fun g -> g.achieved) over_rungs));
      metric "recover_s" "s" recover_s;
    ]
  in
  let metrics =
    if not traced then e2e
    else begin
      (* Per-layer numbers: the same drive again with the observability
         layer on. *)
      Obs.Registry.reset ();
      Obs.set_enabled true;
      Gc.full_major ();
      let t =
        drive_in_process ~dir:(Filename.concat root "traced") ~batches ~spec_of
      in
      Obs.set_enabled false;
      verify (fun () ->
          check (Pb_check.same_report t.d_report report) "traced drive ends in a different report");
      let base_subs = stream in
      let stalled =
        Array.fold_left
          (fun a s -> if 1e3 *. (s.acked -. s.due) > stall_ms then a + 1 else a)
          0 base_subs
      in
      let in_proc = samples () in
      for i = 0 to count t.submit - 1 do
        push in_proc (t.protocol.data.(i) +. t.submit.data.(i) +. t.barrier.data.(i))
      done;
      let rounds = Obs.Registry.counter_value (Obs.Registry.counter "sim.rounds") in
      let busy = sum t.protocol +. sum t.submit +. sum t.barrier +. sum t.flush in
      Pb_layers.complete
      @@ Pb_layers.from_obs ()
      @ [
          metric "schedulers.rounds" "count" (float_of_int rounds);
          metric "sim.tasks_killed" "count" (float_of_int t.d_report.tasks_killed);
          metric "sim.requeues" "count" (float_of_int t.d_report.requeues);
          metric "gc.minor_words_per_round" "words" (t.minor_words /. float_of_int (max 1 rounds));
          metric "gc.major_words_per_round" "words" (t.major_words /. float_of_int (max 1 rounds));
          metric "server.protocol_us" "us" (1e6 *. sum t.protocol /. float_of_int (count t.protocol));
          metric "server.submit_us" "us" (1e6 *. sum t.submit /. float_of_int (count t.submit));
          metric "journal.barrier_p50_ms" "ms" (1e3 *. quantile t.barrier 0.5);
          metric "journal.barrier_p99_ms" "ms" (1e3 *. quantile t.barrier 0.99);
          metric "journal.records_per_barrier" "records"
            (float_of_int (Obs.Registry.counter_value (Obs.Registry.counter "journal.appends"))
            /. float_of_int (count t.barrier));
          metric "server.flush_p50_ms" "ms" (1e3 *. quantile t.flush 0.5);
          metric "server.flush_p99_ms" "ms" (1e3 *. quantile t.flush 0.99);
          metric "server.flush_batch" "admissions"
            (mean_list (List.map float_of_int t.batch_sizes));
          metric "server.ack_stalled_share" "ratio"
            (float_of_int stalled /. float_of_int (Array.length base_subs));
          metric "server.net_ms" "ms"
            (1e3 *. (quantile_sorted base.lat 0.5 -. quantile in_proc 0.5));
          metric "recovery.records_replayed" "records" (float_of_int r.A.replayed);
          metric "gen.lateness_p99_ms" "ms" (1e3 *. quantile lateness 0.99);
          metric "latency.p50_ms" "ms" (1e3 *. quantile_sorted base.lat 0.50);
          metric "latency.p95_ms" "ms" (1e3 *. quantile_sorted base.lat 0.95);
          metric "latency.p99_ms" "ms" (1e3 *. quantile_sorted base.lat 0.99);
          metric "trace.wall_s" "s" t.d_wall;
          metric "trace.unattributed_s" "s" (t.d_wall -. busy);
          metric "trace.overhead_share" "ratio" ((t.d_wall -. d.d_wall) /. d.d_wall);
        ]
    end
  in
  { correct = !correct; attempted; failed; metrics }
