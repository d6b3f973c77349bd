(* The ingest workload: sampled shards made in set-up, then folded in one
   at a time along the three paths a shard takes into an aggregate — the
   [pp serve] daemon's wire path, [pp merge]'s text path and
   [pp merge --cct]'s CCT path.  The checks are seed-independent
   invariants: each decode equals the shard, and totals are conserved. *)

module Instrument = Pp_instrument.Instrument
module Engine = Pp_vm.Engine
module Profile_io = Pp_core.Profile_io
module Wire = Pp_core.Profile_wire
module Cct = Pp_core.Cct
module Cct_io = Pp_core.Cct_io
module Serve = Pp_run.Serve

let programs = [ "gcc_like"; "vortex_like"; "swim_like" ]
let duty = 0.25

type shard = {
  saved : Profile_io.saved;  (** flow-hw, canonical *)
  tree : int array Cct.t;  (** context-flow *)
  cct_text : string;  (** [tree] as [pp merge --cct] reads it *)
  base_inst : int;
}

(* One program's three aggregates and the totals each must hold. *)
type sink = {
  agg : Serve.agg;
  mutable text : Profile_io.saved option;
  mutable cct : int array Cct.t option;
  mutable agg_totals : int * int * int;
  mutable text_totals : int * int * int;
  mutable cct_totals : int array;
}

let add3 (a, b, c) (x, y, z) = (a + x, b + y, c + z)

(* Edge calls, then each metric, summed over the tree. *)
let cct_totals tree =
  Cct.fold
    (fun acc node ->
      let calls =
        List.fold_left (fun s (e : _ Cct.edge) -> s + e.Cct.calls) 0
          (Cct.edges node)
      in
      let m = Cct.data node in
      let acc =
        if Array.length acc < Array.length m + 1 then
          Array.init (Array.length m + 1) (fun i ->
              if i < Array.length acc then acc.(i) else 0)
        else acc
      in
      acc.(0) <- acc.(0) + calls;
      Array.iteri (fun i v -> acc.(i + 1) <- acc.(i + 1) + v) m;
      acc)
    [||] tree

let sum_arrays a b =
  Array.init (max (Array.length a) (Array.length b)) (fun i ->
      (if i < Array.length a then a.(i) else 0)
      + if i < Array.length b then b.(i) else 0)

(* [pp merge --cct]'s pointwise metric sum. *)
let merge_data a b =
  match (a, b) with
  | Some a, Some b -> Array.init (Array.length a) (fun i -> a.(i) + b.(i))
  | Some a, None -> Array.copy a
  | None, Some b -> Array.copy b
  | None, None -> [||]

let make_shard ~program ~sampling_seed ~base_inst =
  let profile mode =
    Session.profile ~encode:false
      ~sampling:(Pp_vm.Sampling.create ~duty ~seed:sampling_seed ())
      ~engine:Engine.Compiled ~mode ~program_hash:program.Profile_ops.hash
      program.Profile_ops.prog
  in
  let flow = profile Instrument.Flow_hw and ctx = profile Instrument.Context_flow in
  match (flow.Session.saved, ctx.Session.cct) with
  | Some saved, Some runtime_tree ->
      let cct_text =
        Cct_io.to_string ~codec:Session.cct_codec runtime_tree
      in
      {
        saved = Profile_io.canonical saved;
        tree = Cct_io.of_string ~codec:Cct_io.metrics_codec cct_text;
        cct_text;
        base_inst;
      }
  | _ -> failwith ("sampled session of " ^ program.Profile_ops.name ^ " trapped")

(* The daemon's path: encode to wire frames, decode them incrementally,
   refuse an incompatible hello, and fold each procedure frame in as it
   arrives. *)
let wire_op sink shard =
  let bytes =
    Layer.span ~with_gc:true "core.profile_wire.encode" (fun () ->
        Wire.encode_saved shard.saved)
  in
  let header = ref None and procs = ref [] and summary = ref None in
  let refused = ref None in
  let rec pump reader =
    match Wire.next reader with
    | `Frame (Wire.Hello h) -> (
        header := Some h;
        match sink.agg.Serve.merged with
        | Some acc
          when acc.Profile_io.program_hash <> h.Wire.program_hash
               || acc.Profile_io.mode <> h.Wire.mode
               || acc.Profile_io.pic0 <> h.Wire.pic0
               || acc.Profile_io.pic1 <> h.Wire.pic1 ->
            refused := Some "incompatible shard header"
        | _ -> pump reader)
    | `Frame (Wire.Proc p) -> (
        procs := p :: !procs;
        match !header with
        | None -> refused := Some "proc frame before hello"
        | Some h -> (
            let mini = Wire.saved_of_frames h [ p ] in
            let t0 = Unix.gettimeofday () in
            let r =
              Layer.span "run.serve.agg_add" (fun () ->
                  Serve.agg_add sink.agg mini)
            in
            Layer.sample "run.serve.agg_add" (Unix.gettimeofday () -. t0);
            match r with
            | Ok () -> pump reader
            | Error d -> refused := Some (Pp_ir.Diag.to_string d)))
    | `Frame (Wire.End s) -> summary := Some s
    | `Need_more -> ()
    | `Corrupt msg -> refused := Some msg
  in
  (* decoding, with each procedure's fold nested in it *)
  Layer.span ~with_gc:true "core.profile_wire.decode" (fun () ->
      let reader = Wire.reader () in
      Wire.feed reader bytes;
      pump reader);
  fun () ->
    Layer.count "core.profile_wire.bytes" (float (String.length bytes));
    match (!refused, !header, !summary) with
    | Some msg, _, _ -> Op.fail "wire path refused the shard: %s" msg
    | None, None, _ -> Op.fail "wire stream had no hello"
    | None, _, None -> Op.fail "wire stream had no end frame"
    | None, Some h, Some s ->
        let decoded = Wire.saved_of_frames h (List.rev !procs) in
        let shard_totals = Profile_io.totals shard.saved in
        sink.agg_totals <- add3 sink.agg_totals shard_totals;
        let merged =
          Option.fold ~none:(0, 0, 0) ~some:Profile_io.totals
            sink.agg.Serve.merged
        in
        Op.expect shard.base_inst
          [
            ("wire decode differs from the shard", decoded = shard.saved);
            ( "end frame totals differ from the shard",
              (s.Wire.freq, s.Wire.m0, s.Wire.m1) = shard_totals );
            ("aggregate totals not conserved", merged = sink.agg_totals);
          ]

(* [pp merge]'s path: the v2 text shard, decoded and summed. *)
let text_op sink shard =
  let text =
    Layer.span ~with_gc:true "core.profile_io.encode" (fun () ->
        Profile_io.to_string shard.saved)
  in
  let decoded =
    Layer.span ~with_gc:true "core.profile_io.decode" (fun () ->
        Profile_io.of_string text)
  in
  let merged =
    Layer.span "core.profile_merge" (fun () ->
        match sink.text with
        | None -> Ok decoded
        | Some acc -> Profile_io.merge acc decoded)
  in
  Result.iter (fun m -> sink.text <- Some m) merged;
  fun () ->
    Layer.count "core.profile_io.bytes" (float (String.length text));
    match merged with
    | Error d -> Op.fail "merge refused the shard: %s" (Pp_ir.Diag.to_string d)
    | Ok m ->
        sink.text_totals <- add3 sink.text_totals (Profile_io.totals shard.saved);
        Op.expect shard.base_inst
          [
            ("text decode differs from the shard", decoded = shard.saved);
            ("merged totals not conserved", Profile_io.totals m = sink.text_totals);
          ]

(* [pp merge --cct]'s path. *)
let cct_op sink shard =
  let text =
    Layer.span ~with_gc:true "core.cct_io.encode" (fun () ->
        Cct_io.to_string ~codec:Cct_io.metrics_codec shard.tree)
  in
  let decoded =
    Layer.span ~with_gc:true "core.cct_io.decode" (fun () ->
        Cct_io.of_string ~codec:Cct_io.metrics_codec text)
  in
  let merged =
    Layer.span "core.cct_merge" (fun () ->
        match sink.cct with
        | None -> decoded
        | Some acc -> Cct.merge ~merge_data acc decoded)
  in
  sink.cct <- Some merged;
  fun () ->
    Layer.count "core.cct_io.bytes" (float (String.length text));
    sink.cct_totals <- sum_arrays sink.cct_totals (cct_totals shard.tree);
    Op.expect shard.base_inst
      [
        ("cct text differs from the saved tree", text = shard.cct_text);
        ( "cct decode does not re-encode to its text",
          Cct_io.to_string ~codec:Cct_io.metrics_codec decoded = text );
        ("merged cct totals not conserved", cct_totals merged = sink.cct_totals);
      ]

let new_sink () =
  {
    agg = Serve.agg_create ();
    text = None;
    cct = None;
    agg_totals = (0, 0, 0);
    text_totals = (0, 0, 0);
    cct_totals = [||];
  }

let ops_of ~label sink shard =
  [
    { Op.label = label ^ "/wire"; exec = (fun () -> wire_op sink shard) };
    { Op.label = label ^ "/text"; exec = (fun () -> text_op sink shard) };
    { Op.label = label ^ "/cct"; exec = (fun () -> cct_op sink shard) };
  ]

(* The daemon's shutdown fold must hold what was streamed, and the wire
   and text aggregates must agree once every shard went down both. *)
let finish sinks () =
  List.find_map
    (fun (name, sink) ->
      Layer.peak "run.serve.peak_records" (float sink.agg.Serve.peak);
      match Serve.agg_finish sink.agg with
      | None -> Some (name ^ ": aggregate empty at finish")
      | Some final ->
          if Profile_io.totals final <> sink.agg_totals then
            Some (name ^ ": finished aggregate lost records")
          else if sink.agg_totals <> sink.text_totals then
            Some (name ^ ": wire and text aggregates disagree")
          else None)
    sinks

(* Program instructions a shard of [name] profiles, from the reference. *)
let base_inst ~reference name =
  match
    List.find_opt
      (fun (key, _) -> String.starts_with ~prefix:(name ^ "/") key)
      reference
  with
  | Some (_, e) -> e.Session.base_inst
  | None -> failwith ("no reference entry for " ^ name)

(* One shard per program. *)
let shards ~reference ~seed =
  List.mapi
    (fun pi name ->
      let program = Profile_ops.load name in
      ( program.Profile_ops.name,
        make_shard ~program ~base_inst:(base_inst ~reference name)
          ~sampling_seed:(Hashtbl.hash (seed, pi)) ))
    programs

(* The set-up, and ops that fold a copy of a shard claiming a foreign
   program hash into the first program's aggregates: both refuse it. *)
let setup_with_foreign ~reference ~seed () =
  let sinks =
    List.map
      (fun (name, shard) ->
        let sink = new_sink () in
        ((name, sink), shard, ops_of ~label:name sink shard))
      (shards ~reference ~seed)
  in
  let foreign =
    match sinks with
    | ((name, sink), shard, _) :: _ ->
        let shard =
          {
            shard with
            saved = { shard.saved with Profile_io.program_hash = "foreign" };
          }
        in
        List.filter
          (fun (o : Op.t) -> not (String.ends_with ~suffix:"/cct" o.Op.label))
          (ops_of ~label:(name ^ "/foreign") sink shard)
    | [] -> []
  in
  ( {
      Op.round = Array.of_list (List.concat_map (fun (_, _, ops) -> ops) sinks);
      finish = finish (List.map (fun (s, _, _) -> s) sinks);
      extras = Op.no_extras;
      accounting = false;
      fresh_heap = false;
    },
    Array.of_list foreign )

let setup ~reference ~seed () = fst (setup_with_foreign ~reference ~seed ())
