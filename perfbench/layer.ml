(* Per-layer timing measured from outside the library.

   With tracing on, every op gets a fresh [Pp_telemetry.Trace.t]; the
   benchmark brackets each public call it makes in a span named after the
   layer, and hands the same trace to [Driver.prepare], whose own spans
   ("instrument", "vm.setup", "execute", "extract.profile") land in it
   too.  A layer's self time is its span's duration minus the part its
   child spans cover.  With tracing off every wrapper is a plain call. *)

module Trace = Pp_telemetry.Trace

let current = ref Trace.null
let on () = Trace.enabled !current

(* Set for a whole traced run: per-call counts and samples are recorded,
   also from the untimed checks. *)
let enabled = ref false

(* The library's own span names, mapped onto the ledger's layer names. *)
let layer_of_span = function
  | "execute" -> "vm.execute"
  | "extract.profile" -> "core.extract_path"
  | name -> name

(* GC work inside the calls wrapped by [gc]: minor words allocated and
   major collections, summed over the traced run. *)
let minor_words = ref 0.0
let major_collections = ref 0

let gc f =
  if not (on ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        minor_words := !minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
        major_collections :=
          !major_collections
          + (s1.Gc.major_collections - s0.Gc.major_collections))
      f
  end

(* [span ~with_gc:true] also counts the call's GC work. *)
let span ?(with_gc = false) name f =
  if not (on ()) then f ()
  else
    let traced () = Trace.with_span !current name f in
    if with_gc then gc traced else traced ()

(* Sums and counts of per-call quantities (bytes, nodes, decisions),
   recorded only while tracing; reported as means. *)
let counts : (string, float * int) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !enabled then
    let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt counts name) in
    Hashtbl.replace counts name (s +. v, n + 1)

(* Largest value seen, per name. *)
let peaks : (string, float) Hashtbl.t = Hashtbl.create 4

let peak name v =
  if !enabled then
    Hashtbl.replace peaks name
      (max v (Option.value ~default:v (Hashtbl.find_opt peaks name)))

(* Individual per-call durations, for percentiles. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 4

let sample name v =
  if !enabled then
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

(* Self time and call count per layer of one op's trace, and the time its
   outermost spans cover. *)
let self_times trace =
  let totals = Hashtbl.create 16 in
  let add name d =
    let name = layer_of_span name in
    let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (s +. d, n + 1)
  in
  (* open spans: start time and the time their children cover *)
  let stack = ref [] and covered = ref 0.0 in
  List.iter
    (function
      | Trace.Begin { name; ts } -> stack := (name, ts, ref 0.0) :: !stack
      | Trace.End { ts; _ } -> (
          match !stack with
          | (name, t0, kids) :: rest ->
              let d = ts -. t0 in
              add name (d -. !kids);
              (match rest with
              | (_, _, parent) :: _ -> parent := !parent +. d
              | [] -> covered := !covered +. d);
              stack := rest
          | [] -> ())
      | Trace.Counter _ | Trace.Instant _ -> ())
    (Trace.events trace);
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [], !covered)

type timed = {
  value : (unit -> Op.check, exn) result;
  wall : float;  (** seconds *)
  layers : (string * (float * int)) list;  (** self seconds, calls *)
  covered : float;  (** seconds under outermost spans *)
}

(* Run one op's timed part, traced or not. *)
let timed ~tracing (op : Op.t) =
  if tracing then current := Trace.create ~capacity:8192 ();
  let t0 = Unix.gettimeofday () in
  let value = try Ok (op.Op.exec ()) with e -> Error e in
  let wall = Unix.gettimeofday () -. t0 in
  let layers, covered =
    if tracing then self_times !current else ([], 0.0)
  in
  current := Trace.null;
  { value; wall; layers; covered }

(* Run [f] under a fresh trace, for the extra executions of a traced run;
   returns its result and the self time of one layer, in seconds. *)
let layer_seconds layer f =
  current := Trace.create ~capacity:8192 ();
  let v = try f () with e -> current := Trace.null; raise e in
  let layers, _ = self_times !current in
  current := Trace.null;
  (v, Option.fold ~none:0.0 ~some:fst (List.assoc_opt layer layers))
