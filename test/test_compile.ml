(* Differential certification of the closure-threaded compiled tier.

   The compiled engine ([Pp_vm.Engine.Compiled], the default) must be
   bit-exact with the reference interpreter: same counters, cycles,
   output, profiles, observer streams and traps — including traps that
   land mid-way through a batched block, where the compiled tier replays
   the block's machine events precisely.  Every check below runs the same
   program under both tiers and compares a rendered observation string,
   so a divergence fails with both sides visible. *)

module Engine = Pp_vm.Engine
module Interp = Pp_vm.Interp
module Stack_sampler = Pp_vm.Stack_sampler
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Profile_io = Pp_core.Profile_io
module Cct = Pp_core.Cct
module Event = Pp_machine.Event
module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Machine = Pp_machine.Machine
module Counters = Pp_machine.Counters
module Trace = Pp_telemetry.Trace

let all_modes =
  [
    Instrument.Edge_freq;
    Instrument.Flow_freq;
    Instrument.Flow_hw;
    Instrument.Context_hw;
    Instrument.Context_flow;
  ]

type config = Base | Mode of Instrument.mode

let all_configs = Base :: List.map (fun m -> Mode m) all_modes

let config_name = function
  | Base -> "base"
  | Mode m -> Instrument.mode_name m

(* {2 Observations}

   Everything externally visible about a run, rendered to one string:
   outcome (completed or the exact trap message), the full counter set,
   cycles, instructions, emitted output, and — for modes that collect
   one — the serialized profile, edge counts or CCT size.  On a trap the
   counter/output snapshot at the trap point is still compared, which is
   exactly where an imprecise batched tier would diverge. *)

let render_output = function
  | Interp.Oint n -> string_of_int n
  | Interp.Ofloat f -> Printf.sprintf "%h" f

let render_result (r : Interp.result) =
  let counters =
    List.map
      (fun (e, n) -> Printf.sprintf "%s=%d" (Event.name e) n)
      r.Interp.counters
  in
  Printf.sprintf "insts=%d cycles=%d [%s] out=[%s]" r.Interp.instructions
    r.Interp.cycles
    (String.concat " " counters)
    (String.concat ";" (List.map render_output r.Interp.output))

let render_edges session =
  String.concat "\n"
    (List.map
       (fun (proc, _, edges) ->
         Printf.sprintf "%s: %s" proc
           (String.concat ","
              (List.map (fun (_, c) -> string_of_int c) edges)))
       (Driver.edge_profile session))

let render_mode_artifacts mode session prog =
  match mode with
  | Instrument.Flow_freq | Instrument.Flow_hw | Instrument.Context_flow ->
      let saved =
        Profile_io.of_profile
          ~program_hash:(Profile_io.program_hash prog)
          ~mode:(Instrument.mode_name mode)
          (Driver.path_profile session)
      in
      let cct =
        match mode with
        | Instrument.Context_flow ->
            Printf.sprintf "\ncct-nodes=%d"
              (Cct.num_nodes (Driver.cct session))
        | _ -> ""
      in
      Profile_io.to_string saved ^ cct
  | Instrument.Edge_freq -> render_edges session
  | Instrument.Context_hw ->
      Printf.sprintf "cct-nodes=%d" (Cct.num_nodes (Driver.cct session))

let observe ~budget ~kind ~config prog =
  match config with
  | Base -> (
      let eng = Engine.create ~kind ~max_instructions:budget prog in
      match Engine.run eng with
      | r -> "done " ^ render_result r
      | exception Interp.Trap msg ->
          Printf.sprintf "trap %S %s" msg
            (render_result (Interp.collect_result (Engine.vm eng))))
  | Mode mode -> (
      let s = Driver.prepare ~max_instructions:budget ~engine:kind ~mode prog in
      match Driver.run s with
      | r ->
          Printf.sprintf "done %s\n%s" (render_result r)
            (render_mode_artifacts mode s prog)
      | exception Interp.Trap msg ->
          Printf.sprintf "trap %S %s" msg
            (render_result (Interp.collect_result s.Driver.vm)))

let check_engines ?(budget = 400_000_000) ~what ~configs prog =
  List.iter
    (fun config ->
      let reference = observe ~budget ~kind:Engine.Interpreted ~config prog in
      let compiled = observe ~budget ~kind:Engine.Compiled ~config prog in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" what (config_name config))
        reference compiled)
    configs

(* {2 The workload grid}

   All 18 SPEC-shaped workloads under base plus every instrumentation
   mode.  The budget is deliberately small enough that every run traps
   on instruction-budget exhaustion part-way through real work: the
   comparison then covers the trap message {e and} the counter/output
   snapshot at the trap point — the hard case for batched compilation. *)

let workload_budget = 1_000_000

let check_workload name () =
  let w =
    match Registry.find name with
    | Some w -> w
    | None -> Alcotest.failf "unknown workload %s" name
  in
  check_engines ~budget:workload_budget ~what:name ~configs:all_configs
    (W.compile w)

(* {2 The example programs}

   Every MiniC program shipped under [examples/programs/], run to
   completion (except [contexts.mc], large enough that a budget trap is
   the more interesting comparison), with full profile comparison. *)

let examples_dir =
  (* Tests run from [_build/default/test]; walk up to the source tree. *)
  let rec find dir depth =
    let candidate = Filename.concat dir "examples/programs" in
    if Sys.file_exists candidate && Sys.is_directory candidate then
      Some candidate
    else if depth = 0 then None
    else find (Filename.dirname dir) (depth - 1)
  in
  find (Sys.getcwd ()) 6

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_example file () =
  match examples_dir with
  | None -> Alcotest.fail "examples/programs not found above cwd"
  | Some dir ->
      let src = read_file (Filename.concat dir file) in
      let prog = Pp_minic.Compile.program ~name:file src in
      let budget =
        if file = "contexts.mc" then 2_000_000 else 50_000_000
      in
      check_engines ~budget ~what:file ~configs:all_configs prog

let examples =
  [
    "contexts.mc";
    "feasible_demo.mc";
    "hash_probe.mc";
    "lint_demo.mc";
    "lint_params.mc";
    "stencil.mc";
  ]

(* {2 Trap parity}

   Runtime faults must surface with the identical message and identical
   machine state under both tiers.  Division by zero and unaligned /
   out-of-segment accesses abort a batched block part-way through, so
   they exercise the compiled tier's replay path directly. *)

let compile_mc name src = Pp_minic.Compile.program ~name src

let trap_programs =
  [
    ( "div-by-zero",
      "int g;\n\
       void main() { int i; i = 0; while (i < 5) { g = g + i; i = i + 1; }\n\
      \  print(g / (i - 5)); }\n" );
    ( "rem-by-zero",
      "int g;\n\
       void main() { int z; z = 0; g = 7; print(g % z); }\n" );
    ( "oob-store",
      "int arr[4];\n\
       void main() { int i; i = 0;\n\
      \  while (i < 100000) { arr[i] = i; i = i + 1; } print(arr[0]); }\n" );
    ( "oob-load",
      "int arr[4];\n\
       void main() { int i; int s; i = 0; s = 0;\n\
      \  while (i < 100000) { s = s + arr[i]; i = i + 3; } print(s); }\n" );
    ( "stack-overflow",
      "int f(int n) { return f(n + 1); }\n\
       void main() { print(f(0)); }\n" );
  ]

let check_trap (name, src) () =
  check_engines ~budget:10_000_000 ~what:name ~configs:all_configs
    (compile_mc name src)

(* Budget exhaustion at {e every} boundary: sweep the budget over a small
   program so the limit lands on every block of the run at least once,
   including inside what the compiled tier batches.  Both tiers must
   trap at the same instruction with the same snapshot. *)

let budget_sweep_src =
  "int arr[8];\n\
   int f(int a, int b) { if (a < b) { return a * b; } return a - b; }\n\
   void main() { int i; i = 0;\n\
  \  while (i < 6) { arr[i] = f(i, 3); i = i + 1; }\n\
  \  print(arr[0] + arr[5]); }\n"

let test_budget_sweep () =
  let prog = compile_mc "budget-sweep" budget_sweep_src in
  for budget = 1 to 160 do
    List.iter
      (fun config ->
        let reference =
          observe ~budget ~kind:Engine.Interpreted ~config prog
        in
        let compiled = observe ~budget ~kind:Engine.Compiled ~config prog in
        Alcotest.(check string)
          (Printf.sprintf "budget=%d/%s" budget (config_name config))
          reference compiled)
      [ Base; Mode Instrument.Flow_hw ]
  done

(* {2 Observer-stream parity}

   Every observer event — block entries with their registers, procedure
   enters and leaves, and block-end ticks stamped with the simulated
   clock and both PIC totals — must arrive in the same order with the
   same payload under both tiers.  A batched block that skipped or
   reordered machine events would tick at a different cycle or show
   stale registers; a tier that fired [enter]/[leave] elsewhere would
   shift the stack a sampler sees.  In the instrumented modes the
   session's telemetry counter observer is installed first, so the
   recorder runs composed behind it and the telemetry events (under a
   constant fake clock) join the comparison.  The trapping program
   divides by zero mid-block inside a callee: the stream up to the trap
   must match. *)

let hook_src =
  "int arr[16];\n\
   int mix(int a, int b) { return (a * 31 + b) % 1000003; }\n\
   void main() { int i; int acc; i = 0; acc = 1;\n\
  \  while (i < 400) { acc = mix(acc, i); arr[i % 16] = acc; i = i + 1; }\n\
  \  print(acc); }\n"

let callee_trap_src =
  "int g;\n\
   int f(int z) { g = g + z; g = g * 3; return 100 / z + g; }\n\
   void main() { int i; i = 3;\n\
  \  while (i >= 0) { print(f(i)); i = i - 1; } print(g); }\n"

(* The recorded events, ending with the run's outcome, and the telemetry
   counter samples the session's own observer took. *)
let observer_stream ~kind ~config prog =
  let budget = 10_000_000 in
  let trace = Trace.create ~clock:(fun () -> 0.) () in
  let vm, run =
    match config with
    | Base ->
        let eng = Engine.create ~kind ~max_instructions:budget prog in
        (Engine.vm eng, fun () -> ignore (Engine.run eng))
    | Mode mode ->
        let s =
          Driver.prepare ~max_instructions:budget ~telemetry:trace
            ~telemetry_interval:100 ~engine:kind ~mode prog
        in
        (s.Driver.vm, fun () -> ignore (Driver.run s))
  in
  let rev = ref [] in
  let record fmt = Printf.ksprintf (fun l -> rev := l :: !rev) fmt in
  let machine = Interp.machine vm in
  let counters = Machine.counters machine in
  Interp.observe vm
    {
      block =
        (fun ~proc ~label ~frame ~iregs ->
          record "block %s:%d fp=%d [%s]" proc label frame
            (String.concat ","
               (Array.to_list (Array.map string_of_int iregs))));
      enter = (fun name -> record "enter %s" name);
      leave = (fun () -> record "leave");
      tick =
        (fun () ->
          let pic0, pic1 = Counters.selection counters in
          record "tick now=%d %s=%d %s=%d" (Machine.now machine)
            (Event.name pic0) (Counters.total counters pic0) (Event.name pic1)
            (Counters.total counters pic1));
    };
  (match run () with
  | () -> record "done"
  | exception Interp.Trap msg -> record "trap %S" msg);
  let samples =
    List.filter_map
      (function
        | Trace.Counter { name; values; _ } ->
            Some
              (Printf.sprintf "counter %s %s" name
                 (String.concat " "
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                       values)))
        | _ -> None)
      (Trace.events trace)
  in
  (List.rev !rev, samples)

(* Report the first diverging event rather than two whole streams. *)
let rec check_streams what i reference compiled =
  match (reference, compiled) with
  | [], [] -> ()
  | r :: rs, c :: cs when r = c -> check_streams what (i + 1) rs cs
  | r, c ->
      let hd = function [] -> "<end of stream>" | x :: _ -> x in
      Alcotest.failf "%s: event %d differs\n  interp:   %s\n  compiled: %s"
        what i (hd r) (hd c)

let test_observer_parity () =
  List.iter
    (fun (name, src, outcome) ->
      let prog = compile_mc name src in
      List.iter
        (fun config ->
          let what = Printf.sprintf "%s/%s" name (config_name config) in
          let events, samples =
            observer_stream ~kind:Engine.Interpreted ~config prog
          in
          let kinds =
            List.map (fun l -> List.hd (String.split_on_char ' ' l)) events
          in
          List.iter
            (fun kind ->
              if not (List.mem kind kinds) then
                Alcotest.failf "%s: no %s event observed" what kind)
            [ "enter"; "leave"; "block"; "tick" ];
          Alcotest.(check string)
            (what ^ ": outcome") outcome
            (List.nth events (List.length events - 1));
          if config <> Base && samples = [] then
            Alcotest.failf "%s: no telemetry counter sample" what;
          let c_events, c_samples =
            observer_stream ~kind:Engine.Compiled ~config prog
          in
          check_streams what 0 events c_events;
          check_streams (what ^ " telemetry") 0 samples c_samples)
        all_configs)
    [
      ("hooks", hook_src, "done");
      ("callee-trap", callee_trap_src, "trap \"integer division by zero\"");
    ]

(* The four consumers the observer replaced, each checked on its own
   terms: the telemetry text the session writes, the sampler's stack
   buckets, the block oracle's register view, and the block-entry
   order. *)

let test_telemetry_parity () =
  let prog = compile_mc "hooks" hook_src in
  let telemetry kind =
    (* A constant fake clock makes timestamps deterministic, so the full
       event list — including counter values at each simulated-cycle
       firing — is comparable as text. *)
    let trace = Trace.create ~clock:(fun () -> 0.) () in
    let s =
      Driver.prepare ~max_instructions:10_000_000 ~telemetry:trace
        ~telemetry_interval:100 ~engine:kind ~mode:Instrument.Flow_hw prog
    in
    ignore (Driver.run s);
    Trace.to_text trace
  in
  let reference = telemetry Engine.Interpreted in
  let compiled = telemetry Engine.Compiled in
  Alcotest.(check bool) "telemetry fired" true
    (String.length reference > 0);
  Alcotest.(check string) "telemetry events" reference compiled

let test_sampling_parity () =
  let prog = compile_mc "hooks" hook_src in
  let samples kind =
    let vm = Interp.create ~max_instructions:10_000_000 prog in
    let sampler = Stack_sampler.create vm ~interval:97 in
    ignore (Engine.run (Engine.of_vm ~kind vm));
    Stack_sampler.samples sampler
  in
  let reference = samples Engine.Interpreted in
  Alcotest.(check bool) "samples taken" true (reference <> []);
  Alcotest.(check bool) "sampling parity" true
    (samples Engine.Compiled = reference)

let test_block_probe_parity () =
  let prog = compile_mc "hooks" hook_src in
  let entries kind =
    let vm = Interp.create ~max_instructions:10_000_000 prog in
    let buf = Buffer.create 4096 in
    Interp.observe vm
      {
        Interp.no_observer with
        block =
          (fun ~proc ~label ~frame ~iregs ->
            Buffer.add_string buf
              (Printf.sprintf "%s:%d fp=%d [%s]\n" proc label frame
                 (String.concat ","
                    (Array.to_list (Array.map string_of_int iregs)))));
      };
    ignore (Engine.run (Engine.of_vm ~kind vm));
    Buffer.contents buf
  in
  let reference = entries Engine.Interpreted in
  Alcotest.(check bool) "probe fired" true (String.length reference > 0);
  Alcotest.(check bool) "block probe parity" true
    (entries Engine.Compiled = reference)

(* Block-entry order alone, in every configuration: the instrumented
   modes add probe blocks and calls the base program does not have. *)
let test_block_trace_parity () =
  let prog = compile_mc "hooks" hook_src in
  let order ~kind ~config =
    let vm, run =
      match config with
      | Base ->
          let eng = Engine.create ~kind ~max_instructions:10_000_000 prog in
          (Engine.vm eng, fun () -> ignore (Engine.run eng))
      | Mode mode ->
          let s =
            Driver.prepare ~max_instructions:10_000_000 ~engine:kind ~mode
              prog
          in
          (s.Driver.vm, fun () -> ignore (Driver.run s))
    in
    let rev = ref [] in
    Interp.observe vm
      {
        Interp.no_observer with
        block =
          (fun ~proc ~label ~frame:_ ~iregs:_ ->
            rev := (proc, label) :: !rev);
      };
    run ();
    List.rev !rev
  in
  List.iter
    (fun config ->
      let reference = order ~kind:Engine.Interpreted ~config in
      Alcotest.(check bool)
        (config_name config ^ ": trace recorded")
        true (reference <> []);
      Alcotest.(check bool)
        (config_name config ^ ": block trace parity")
        true
        (order ~kind:Engine.Compiled ~config = reference))
    all_configs

(* {2 Engine API} *)

let test_engine_api () =
  Alcotest.(check string) "default tier" "compiled"
    (Engine.kind_name Engine.default);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Engine.kind_name k))
        true
        (Engine.kind_of_string (Engine.kind_name k) = Some k))
    Engine.kinds;
  Alcotest.(check bool) "unknown tier rejected" true
    (Engine.kind_of_string "turbo" = None);
  let prog = compile_mc "api" hook_src in
  let eng = Engine.create ~kind:Engine.Compiled prog in
  Alcotest.(check bool) "kind observable" true
    (Engine.kind eng = Engine.Compiled);
  (* Re-running the same engine value reuses the compiled code and stays
     consistent with a fresh interpreter. *)
  let r1 = Engine.run (Engine.create ~kind:Engine.Compiled prog) in
  let r2 = Engine.run (Engine.create ~kind:Engine.Interpreted prog) in
  Alcotest.(check string) "create/run parity" (render_result r2)
    (render_result r1)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "workload %s: engines agree (all modes)" name)
        `Slow (check_workload name))
    (Registry.names ())
  @ List.map
      (fun file ->
        Alcotest.test_case
          (Printf.sprintf "example %s: engines agree (all modes)" file)
          `Slow (check_example file))
      examples
  @ List.map
      (fun ((name, _) as tp) ->
        Alcotest.test_case
          (Printf.sprintf "trap parity: %s" name)
          `Quick (check_trap tp))
      trap_programs
  @ [
      Alcotest.test_case "budget sweep: trap at every boundary" `Quick
        test_budget_sweep;
      Alcotest.test_case "observer stream parity (all modes, callee trap)"
        `Quick test_observer_parity;
      Alcotest.test_case "telemetry parity (interval inside batched blocks)"
        `Quick test_telemetry_parity;
      Alcotest.test_case "sampling parity" `Quick test_sampling_parity;
      Alcotest.test_case "block probe parity" `Quick test_block_probe_parity;
      Alcotest.test_case "block trace parity" `Quick test_block_trace_parity;
      Alcotest.test_case "engine api" `Quick test_engine_api;
    ]
