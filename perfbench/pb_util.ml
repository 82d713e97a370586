(* Shared helpers: monotonic timing, order statistics, process memory,
   and the result line every run ends with. *)

let now = Prelude.Clock.now

(* [timed f] runs [f] and returns its result with the elapsed seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Growable float sample buffer (round latencies, ack latencies). *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 1024 0.0; n = 0 }

let push s v =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n
let sum s = Array.fold_left ( +. ) 0.0 (Array.sub s.data 0 s.n)

let sorted s =
  let a = Array.sub s.data 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least a [q] share of the samples at or below it. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let quantile s q = quantile_sorted (sorted s) q

(* Samples strictly beyond the [q] quantile: a tail percentile is only
   reported when at least ten samples lie past it. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let median_list l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean_list = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* One line describing a distribution, for the human-readable output. *)
let print_dist name l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  Printf.printf "%s: n=%d p50=%g p75=%g p90=%g mean=%g\n" name (Array.length a)
    (quantile_sorted a 0.5) (quantile_sorted a 0.75) (quantile_sorted a 0.9) (mean_list l)

(* Peak resident set of process [pid] ("self" for this one), MiB, from
   the kernel's high-water mark. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Allocation counters, for per-round GC deltas. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(* ---- result reporting ---------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* What one run of a workload reports. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* A value that cannot be written as a JSON number (a measurement over
   no successful operation) is written as 0; such a run already reports
   its failed checks. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-32s %18.6f %s\n" m.name m.value m.unit_)
    metrics;
  Printf.printf "attempted=%d failed=%d correct=%b\n" attempted failed correct;
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_number m.value)
             m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

(* Fatal benchmark error: a check or measurement that could not run. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("hirebench: " ^ msg); exit 2) fmt
