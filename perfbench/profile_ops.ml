(* The profile-context and profile-flow workloads: one op is one
   [pp profile] session, checked against the interpreter-made reference. *)

module Instrument = Pp_instrument.Instrument
module Engine = Pp_vm.Engine
module Interp = Pp_vm.Interp

let context_programs =
  [ "gcc_like"; "li_like"; "vortex_like"; "go_like"; "perl_like"; "m88k_like" ]

let context_modes = [ Instrument.Context_hw; Instrument.Context_flow ]

let flow_programs =
  [
    "swim_like"; "tomcatv_like"; "mgrid_like"; "turb3d_like"; "fpppp_like";
    "wave5_like";
  ]

let flow_modes = [ Instrument.Edge_freq; Instrument.Flow_hw ]

type program = {
  name : string;
  prog : Pp_ir.Program.t;
  hash : string;
}

let load name =
  let prog = Session.compile name in
  { name; prog; hash = Pp_core.Profile_io.program_hash prog }

(* Check one session's outcome against its reference entry. *)
let verify ~want (o : Session.outcome) =
  let runs = match o.Session.result with Ok r -> [ r ] | Error _ -> [] in
  Option.iter
    (fun c -> Layer.count "core.cct.nodes" (float (Pp_core.Cct.num_nodes c)))
    o.Session.cct;
  if o.Session.profile_text <> "" then
    Layer.count "core.profile_io.bytes"
      (float (String.length o.Session.profile_text));
  if o.Session.cct_text <> "" then
    Layer.count "core.cct_io.bytes" (float (String.length o.Session.cct_text));
  let got = Session.entry_of ~base_inst:want.Session.base_inst
      ~base_cycles:want.Session.base_cycles o in
  match Session.diff ~want ~got with
  | None -> Op.ok ~runs want.Session.base_inst
  | Some field -> Op.fail ~runs "%s differs from the reference" field

let op ~reference p mode =
  let key = Session.key ~program:p.name ~mode in
  {
    Op.label = key;
    exec =
      (fun () ->
        let o =
          Session.profile ~engine:Engine.Compiled ~mode ~program_hash:p.hash
            p.prog
        in
        fun () ->
          match List.assoc_opt key reference with
          | Some want -> verify ~want o
          | None -> Op.fail "no reference entry for %s" key);
  }

let exec_row ~program ~mode ~engine (r, seconds) =
  {
    Op.program;
    mode;
    engine;
    execute_s = seconds;
    inst = r.Interp.instructions;
  }

(* The fastest of [runs] runs, timed by its execute span. *)
let fastest ~runs f =
  List.init runs (fun _ -> Layer.layer_seconds "vm.execute" f)
  |> List.fold_left
       (fun acc (r, s) ->
         match acc with Some (_, s') when s' <= s -> acc | _ -> Some (r, s))
       None
  |> Option.get

(* The traced run's extra executions: each op on the interpreter (the
   fastest of two), and the uninstrumented program on both engines (the
   fastest of three: it is the short one). *)
let extras programs modes () =
  List.concat_map
    (fun p ->
      let interp =
        List.map
          (fun mode ->
            let o, s =
              fastest ~runs:2 (fun () ->
                  Session.profile ~engine:Engine.Interpreted ~mode
                    ~program_hash:p.hash p.prog)
            in
            match o.Session.result with
            | Ok r ->
                exec_row ~program:p.name ~mode:(Instrument.mode_name mode)
                  ~engine:Engine.Interpreted (r, s)
            | Error msg -> failwith ("trap: " ^ msg))
          modes
      in
      let base engine =
        exec_row ~program:p.name ~mode:"base" ~engine
          (fastest ~runs:3 (fun () -> Session.baseline ~engine p.prog))
      in
      interp @ [ base Engine.Compiled; base Engine.Interpreted ])
    programs

let setup ~reference ~programs ~modes () =
  let programs = List.map load programs in
  {
    Op.round =
      Array.of_list
        (List.concat_map
           (fun p -> List.map (op ~reference p) modes)
           programs);
    finish = Op.no_finish;
    extras = extras programs modes;
    accounting = true;
    fresh_heap = true;
  }
