(* One [pp profile] session through the library, and the reference digests
   that pin what it must produce. *)

module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine
module Runtime = Pp_vm.Runtime
module Event = Pp_machine.Event
module Cct = Pp_core.Cct
module Cct_io = Pp_core.Cct_io
module Profile_io = Pp_core.Profile_io

(* [pp]'s default instruction budget. *)
let budget = 400_000_000

let compile name =
  match Pp_workloads.Registry.find name with
  | Some w ->
      Layer.span "minic.compile" (fun () -> Pp_workloads.Workload.compile w)
  | None -> invalid_arg ("unknown workload " ^ name)

let modes =
  Instrument.[ Edge_freq; Flow_freq; Flow_hw; Context_hw; Context_flow ]

let has_paths = function
  | Instrument.Flow_freq | Instrument.Flow_hw | Instrument.Context_flow -> true
  | Instrument.Edge_freq | Instrument.Context_hw -> false

let has_cct = function
  | Instrument.Context_hw | Instrument.Context_flow -> true
  | Instrument.Edge_freq | Instrument.Flow_freq | Instrument.Flow_hw -> false

let pruner cfg bl =
  Layer.span "analysis.feasibility" (fun () ->
      Pp_analysis.Feasibility.pruner cfg bl)

(* The static analyzer's certified feasible-path counts, as [pp profile]
   attaches them to saved shards. *)
let feasible_of (session : Driver.session) =
  List.filter_map
    (fun (info : Instrument.proc_info) ->
      Option.map
        (fun p -> (info.Instrument.proc, Pp_core.Ball_larus.num_feasible p))
        info.Instrument.pruned)
    session.Driver.manifest.Instrument.infos

(* [pp profile --cct-out]'s codec: the runtime record's metric payload. *)
let cct_codec =
  {
    Cct_io.encode =
      (fun (d : Runtime.record_data) ->
        Cct_io.metrics_codec.Cct_io.encode d.Runtime.metrics);
    decode =
      (fun s ->
        {
          Runtime.addr = 0;
          metrics = Cct_io.metrics_codec.Cct_io.decode s;
          paths = Hashtbl.create 1;
          ptable_addr = 0;
        });
  }

type outcome = {
  result : (Interp.result, string) Stdlib.result;  (** [Error] = trap *)
  saved : Profile_io.saved option;  (** path modes *)
  edges :
    (string * Pp_core.Edge_profile.t * (Pp_graph.Digraph.edge * int) list)
    list;  (** edge-freq *)
  cct : Runtime.record_data Cct.t option;  (** context modes *)
  profile_text : string;  (** [Profile_io.to_string] of [saved], or "" *)
  cct_text : string;  (** [Cct_io.to_string] of [cct], or "" *)
}

(* Prepare (with feasibility pruning, as [pp profile] does), run, extract
   and encode.  [encode:false] skips the text encodings (sampled shards
   the ingest workload re-encodes itself). *)
let profile ?(encode = true) ?sampling ~engine ~mode ~program_hash prog =
  let session =
    Driver.prepare ~pruner ~max_instructions:budget ~engine
      ~telemetry:!Layer.current ?sampling ~mode prog
  in
  match Layer.gc (fun () -> Driver.run session) with
  | exception Interp.Trap msg ->
      {
        result = Error msg;
        saved = None;
        edges = [];
        cct = None;
        profile_text = "";
        cct_text = "";
      }
  | r ->
      let saved =
        if has_paths mode then
          let p = Driver.path_profile session in
          Some
            (Profile_io.of_profile ~feasible:(feasible_of session)
               ~coverage:(Driver.coverage session) ~program_hash
               ~mode:(Instrument.mode_name mode) p)
        else None
      in
      let edges =
        if mode = Instrument.Edge_freq then
          Layer.span "core.extract_edge" (fun () -> Driver.edge_profile session)
        else []
      in
      let cct =
        if has_cct mode then
          Some (Layer.span "core.extract_cct" (fun () -> Driver.cct session))
        else None
      in
      let profile_text =
        match saved with
        | Some s when encode ->
            Layer.span ~with_gc:true "core.profile_io.encode" (fun () ->
                Profile_io.to_string s)
        | _ -> ""
      in
      let cct_text =
        match cct with
        | Some c when encode ->
            Layer.span ~with_gc:true "core.cct_io.encode" (fun () ->
                Cct_io.to_string ~codec:cct_codec c)
        | _ -> ""
      in
      { result = Ok r; saved; edges; cct; profile_text; cct_text }

(* The uninstrumented program on the same machine model: engine set-up and
   execution timed apart, as a session's "vm.setup" and "execute" are. *)
let baseline ~engine prog =
  let eng =
    Layer.span "vm.setup" (fun () ->
        let eng = Engine.create ~kind:engine ~max_instructions:budget prog in
        Interp.select_pics (Engine.vm eng) ~pic0:Event.Dcache_misses
          ~pic1:Event.Instructions;
        eng)
  in
  Layer.gc (fun () -> Layer.span "vm.execute" (fun () -> Engine.run eng))

(* {2 Reference digests} *)

let hex s = Digest.to_hex (Digest.string s)

let render_output (r : Interp.result) =
  String.concat " "
    (List.map
       (function
         | Interp.Oint n -> string_of_int n
         | Interp.Ofloat f -> Printf.sprintf "%h" f)
       r.Interp.output)

let render_counters (r : Interp.result) =
  String.concat " "
    (List.map
       (fun (e, n) -> Printf.sprintf "%s=%d" (Event.name e) n)
       r.Interp.counters)

let render_edges edges =
  let b = Buffer.create 1024 in
  List.iter
    (fun (proc, _plan, es) ->
      List.iter
        (fun ((e : Pp_graph.Digraph.edge), n) ->
          Printf.bprintf b "%s %d %d\n" proc e.Pp_graph.Digraph.id n)
        es)
    edges;
  Buffer.contents b

let counter e (r : Interp.result) =
  Option.value ~default:0 (List.assoc_opt e r.Interp.counters)

(* Everything a profile op is checked against, for one program and mode.
   [base_*] describe the uninstrumented program. *)
type entry = {
  base_inst : int;
  base_cycles : int;
  inst : int;
  cycles : int;
  dmiss : int;
  imiss : int;
  counters : string;
  output : string;
  trap : string;
  profile_digest : string;
  cct_digest : string;
}

let entry_of ~base_inst ~base_cycles (o : outcome) =
  let r = match o.result with Ok r -> Some r | Error _ -> None in
  let count f = Option.fold ~none:0 ~some:f r in
  let digest f = Option.fold ~none:"-" ~some:(fun r -> hex (f r)) r in
  {
    base_inst;
    base_cycles;
    inst = count (fun r -> r.Interp.instructions);
    cycles = count (fun r -> r.Interp.cycles);
    dmiss = count (counter Event.Dcache_misses);
    imiss = count (counter Event.Icache_misses);
    counters = digest render_counters;
    output = digest render_output;
    trap = (match o.result with Ok _ -> "-" | Error m -> hex m);
    profile_digest =
      hex (match o.edges with [] -> o.profile_text | es -> render_edges es);
    cct_digest = hex o.cct_text;
  }

(* The first field on which [got] differs from [want]. *)
let diff ~want ~got =
  let fields =
    [
      ("trap", want.trap = got.trap);
      ("output", want.output = got.output);
      ("instructions", want.inst = got.inst);
      ("cycles", want.cycles = got.cycles);
      ("counters", want.counters = got.counters);
      ("profile bytes", want.profile_digest = got.profile_digest);
      ("cct bytes", want.cct_digest = got.cct_digest);
    ]
  in
  List.find_map (fun (f, same) -> if same then None else Some f) fields

let entry_to_line key e =
  Printf.sprintf
    "%s base_inst=%d base_cycles=%d inst=%d cycles=%d dmiss=%d imiss=%d \
     counters=%s output=%s trap=%s profile=%s cct=%s"
    key e.base_inst e.base_cycles e.inst e.cycles e.dmiss e.imiss e.counters
    e.output e.trap e.profile_digest e.cct_digest

let entry_of_line line =
  match String.split_on_char ' ' line with
  | key :: fields ->
      let kv =
        List.map
          (fun f ->
            match String.index_opt f '=' with
            | Some i ->
                (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
            | None -> failwith ("malformed reference field " ^ f))
          fields
      in
      let s k =
        match List.assoc_opt k kv with
        | Some v -> v
        | None -> failwith ("reference line lacks " ^ k ^ ": " ^ key)
      in
      let i k = int_of_string (s k) in
      ( key,
        {
          base_inst = i "base_inst";
          base_cycles = i "base_cycles";
          inst = i "inst";
          cycles = i "cycles";
          dmiss = i "dmiss";
          imiss = i "imiss";
          counters = s "counters";
          output = s "output";
          trap = s "trap";
          profile_digest = s "profile";
          cct_digest = s "cct";
        } )
  | [] -> failwith "empty reference line"

let key ~program ~mode = program ^ "/" ^ Instrument.mode_name mode

let load_reference path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line when line = "" || line.[0] = '#' -> go acc
    | line -> go (entry_of_line line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []
