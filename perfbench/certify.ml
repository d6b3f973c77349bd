(* The certify workload: one op is one verdict for one program, along the
   library path of [pp check], [pp prove], [pp predict] (one mode) or
   [pp optimize --certify].  Each is checked against its known answer. *)

module Instrument = Pp_instrument.Instrument
module Driver = Pp_instrument.Driver
module Verifier = Pp_analysis.Verifier
module Predict_run = Pp_run.Predict_run
module Engine = Pp_vm.Engine
module Interp = Pp_vm.Interp

let programs = [ "gcc_like"; "li_like"; "m88k_like" ]

(* [pp predict] ops: one per mode, spread over the programs so a round
   stays short enough to run five times in a measured run. *)
let predict_modes = function
  | "gcc_like" -> Instrument.[ Flow_hw; Context_flow ]
  | "li_like" -> Instrument.[ Edge_freq; Context_hw ]
  | _ -> Instrument.[ Flow_freq ]

(* m88k_like reads one word past a global, so it is the one program whose
   data placement the optimizer's empirical guard drops. *)
let drops_placement name = name = "m88k_like"

let instrument ?pruner ~mode prog =
  Layer.span "instrument" (fun () -> Instrument.run ?pruner ~mode prog)

let check prog =
  List.concat_map
    (fun mode ->
      let instrumented, manifest = instrument ~mode prog in
      Layer.span "analysis.check" (fun () ->
          Verifier.verify_program ~original:prog ~manifest instrumented))
    Session.modes

let prove ?pruner prog =
  List.concat_map
    (fun mode ->
      let instrumented, manifest = instrument ?pruner ~mode prog in
      Layer.span "analysis.prove" (fun () ->
          Verifier.prove_program ~budget:Session.budget ~original:prog
            ~manifest instrumented))
    Session.modes

let diags_check ~what diags =
  match diags with
  | [] -> None
  | d :: _ -> Some (Printf.sprintf "%s: %s" what (Pp_ir.Diag.to_string d))

let predict ~base_inst prog mode () =
  (* Predict.create is timed apart, in traced runs only, so the oracle's
     share of Predict_run.run can be told from the analysis's. *)
  if Layer.on () then begin
    let instrumented, _ = Instrument.run ~mode prog in
    ignore
      (Layer.span "analysis.predict_create" (fun () ->
           Pp_analysis.Predict.create ~original:prog ~instrumented ()))
  end;
  let o =
    Layer.span "run.predict" (fun () ->
        Predict_run.run ~budget:Session.budget ~engine:Engine.Compiled ~mode
          prog)
  in
  fun () ->
    Op.expect base_inst
      [
        ("predict refuted a row", o.Predict_run.refuted = 0);
        ("predict oracle anomaly", o.Predict_run.anomalies = []);
        ("predict run trapped", not o.Predict_run.trapped);
      ]

(* [pp optimize --certify]: profile (flow-hw paths + context-flow CCT),
   summarise, optimise with the data-placement guard, re-measure, then
   re-certify the optimised program with check and prove in all modes. *)
let optimize ~name ~base_inst prog () =
  let profile mode =
    let session =
      Driver.prepare ~pruner:Session.pruner ~max_instructions:Session.budget
        ~engine:Engine.Compiled ~telemetry:!Layer.current ~mode prog
    in
    (session, Layer.gc (fun () -> Driver.run session))
  in
  let flow, flow_r = profile Instrument.Flow_hw in
  let ctx, ctx_r = profile Instrument.Context_flow in
  let cct = Layer.span "core.extract_cct" (fun () -> Driver.cct ctx) in
  let paths = Driver.path_profile flow in
  let summary =
    Layer.span "opt.summary" (fun () ->
        Pp_opt.Summary.of_paths ~cct prog paths)
  in
  let base = Session.baseline ~engine:Engine.Compiled prog in
  (* The placement guard's re-run, as [pp optimize] makes it; no spans
     inside, so its whole cost is opt.validate's. *)
  let validate p =
    Layer.span "opt.validate" (fun () ->
        match
          Driver.run_baseline ~max_instructions:Session.budget
            ~engine:Engine.Compiled p
        with
        | r -> r.Interp.output = base.Interp.output
        | exception Interp.Trap _ -> false)
  in
  let optimized, report =
    Layer.span "opt.pgo" (fun () -> Pp_opt.Pgo.optimize ~validate ~summary prog)
  in
  let after = Session.baseline ~engine:Engine.Compiled optimized in
  let recheck = check optimized and reprove = prove optimized in
  fun () ->
    let runs = [ flow_r; ctx_r; base; after ] in
    Layer.count "opt.inlined" (float (List.length report.Pp_opt.Pgo.inlined));
    Layer.count "opt.data_dropped"
      (if report.Pp_opt.Pgo.data_dropped then 1.0 else 0.0);
    match
      List.find_map Fun.id
        [
          diags_check ~what:"re-check" recheck;
          diags_check ~what:"re-prove" reprove;
        ]
    with
    | Some msg -> Op.fail ~runs "%s" msg
    | None ->
        Op.expect ~runs (2 * base_inst)
          [
            ( "optimized output differs",
              after.Interp.output = base.Interp.output );
            ( "data placement verdict differs",
              report.Pp_opt.Pgo.data_dropped = drops_placement name );
          ]

let ops ~reference name =
  let prog = Session.compile name in
  let base_inst = Ingest.base_inst ~reference name in
  let static what f =
    {
      Op.label = name ^ "/" ^ what;
      exec =
        (fun () ->
          let diags = f prog in
          fun () ->
            match diags_check ~what diags with
            | None -> Op.ok 0
            | Some msg -> Op.fail "%s" msg);
    }
  in
  [
    static "check" check;
    static "prove" (prove ~pruner:Session.pruner);
    { Op.label = name ^ "/optimize"; exec = optimize ~name ~base_inst prog };
  ]
  @ List.map
      (fun mode ->
        {
          Op.label = name ^ "/predict/" ^ Instrument.mode_name mode;
          exec = predict ~base_inst prog mode;
        })
      (predict_modes name)

let setup ~reference () =
  {
    Op.round = Array.of_list (List.concat_map (ops ~reference) programs);
    finish = Op.no_finish;
    extras = Op.no_extras;
    accounting = false;
    fresh_heap = true;
  }
