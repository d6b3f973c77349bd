(* The host-time benchmark of the profiling path.

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1
     ledger.exe regen [--engine interp]
     ledger.exe selftest

   A run sets the workload up, then runs whole rounds of its ops until
   [--seconds] have passed and five rounds ran: the first round in the
   set-up's order, each later one in an order shuffled by the seed.
   Set-up is timed in bursts spread over the run; the fastest set-up is
   [setup_s].  Every op is checked; the last line of standard output is
   one JSON object with the end-to-end metrics ([--trace 0]) or the
   per-layer ones ([--trace 1]).  See LEDGER.md. *)

module Instrument = Pp_instrument.Instrument
module Engine = Pp_vm.Engine
module Interp = Pp_vm.Interp

let reference_path = "perfbench/reference.txt"

(* Largest share of a traced profile op's wall time its layer spans may
   leave uncovered (the layer accounting check). *)
let accounting_tolerance = 0.05

let workloads = [ "profile-context"; "profile-flow"; "ingest"; "certify" ]

let prepare ~reference ~seed = function
  | "profile-context" ->
      Profile_ops.setup ~reference ~programs:Profile_ops.context_programs
        ~modes:Profile_ops.context_modes
  | "profile-flow" ->
      Profile_ops.setup ~reference ~programs:Profile_ops.flow_programs
        ~modes:Profile_ops.flow_modes
  | "ingest" -> Ingest.setup ~reference ~seed
  | "certify" -> Certify.setup ~reference
  | name -> invalid_arg ("unknown workload " ^ name)

(* {2 Statistics} *)

let sorted l = List.sort compare l |> Array.of_list

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile of a fixed ladder with at least ten of [n] ops
   beyond it. *)
let tail_percentile n =
  let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float n)) in
  Option.value ~default:50.0
    (List.find_opt (fun p -> beyond p >= 10) [ 99.9; 99.0; 95.0; 90.0; 75.0 ])

let sum l = List.fold_left ( +. ) 0.0 l
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The process's peak resident set ([VmHWM]); a run that cannot read it
   fails. *)
let read_peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* {2 Running ops} *)

(* Untraced ops of one label: fastest and summed wall time (seconds), and
   the program instructions one such op profiles. *)
type kind = {
  mutable best : float;
  mutable count : int;
  mutable total : float;
  mutable inst : int;
}

type stats = {
  kinds : (string, kind) Hashtbl.t;  (** untraced ops, by label *)
  mutable attempted : int;
  mutable failures : (string * string) list;  (** label, why *)
  machine : int array;
      (** executions seen by traced ops, and their summed cycles, D-cache
          and I-cache misses *)
  mutable traced_walls : float list;
  mutable traced_execute_s : float;  (** vm.execute self time of traced ops *)
  mutable paired_untraced_walls : float list;
  layers : (string, float * int) Hashtbl.t;  (** self seconds, calls *)
  mutable residuals : float list;  (** uncovered share per traced op *)
  mutable compiled_rows : Op.exec_row list;
}

let new_stats () =
  {
    kinds = Hashtbl.create 32;
    attempted = 0;
    failures = [];
    machine = Array.make 4 0;
    traced_walls = [];
    traced_execute_s = 0.0;
    paired_untraced_walls = [];
    layers = Hashtbl.create 32;
    residuals = [];
    compiled_rows = [];
  }

let add_layers stats layers =
  List.iter
    (fun (name, (s, n)) ->
      let s0, n0 =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt stats.layers name)
      in
      Hashtbl.replace stats.layers name (s0 +. s, n0 + n))
    layers

let run_checked ~fresh_heap ~tracing stats (op : Op.t) =
  if fresh_heap then Gc.full_major ();
  let t = Layer.timed ~tracing op in
  let check =
    match t.Layer.value with
    | Ok verify -> (
        try verify ()
        with e -> Op.fail "check raised %s" (Printexc.to_string e))
    | Error e -> Op.fail "raised %s" (Printexc.to_string e)
  in
  stats.attempted <- stats.attempted + 1;
  Option.iter
    (fun why -> stats.failures <- (op.Op.label, why) :: stats.failures)
    check.Op.failure;
  (t, check)

(* An untraced run of [op]; traced runs pair it with a traced one. *)
let run_op ~tracing ~(prepared : Op.prepared) stats op =
  let fresh_heap = prepared.Op.fresh_heap in
  let t, check = run_checked ~fresh_heap ~tracing:false stats op in
  if not tracing then begin
    let k =
      match Hashtbl.find_opt stats.kinds op.Op.label with
      | Some k -> k
      | None ->
          let k = { best = infinity; count = 0; total = 0.0; inst = 0 } in
          Hashtbl.add stats.kinds op.Op.label k;
          k
    in
    k.best <- Float.min k.best t.Layer.wall;
    k.count <- k.count + 1;
    k.total <- k.total +. t.Layer.wall;
    k.inst <- check.Op.profiled_inst
  end
  else begin
    let tt, tcheck = run_checked ~fresh_heap ~tracing:true stats op in
    stats.paired_untraced_walls <- t.Layer.wall :: stats.paired_untraced_walls;
    stats.traced_walls <- tt.Layer.wall :: stats.traced_walls;
    List.iter
      (fun (r : Interp.result) ->
        let m = stats.machine in
        m.(0) <- m.(0) + 1;
        m.(1) <- m.(1) + r.Interp.cycles;
        m.(2) <- m.(2) + Session.counter Pp_machine.Event.Dcache_misses r;
        m.(3) <- m.(3) + Session.counter Pp_machine.Event.Icache_misses r)
      tcheck.Op.runs;
    add_layers stats tt.Layer.layers;
    let execute_s =
      Option.fold ~none:0.0 ~some:fst
        (List.assoc_opt "vm.execute" tt.Layer.layers)
    in
    stats.traced_execute_s <- stats.traced_execute_s +. execute_s;
    if prepared.Op.accounting then
      stats.residuals <-
        ((tt.Layer.wall -. tt.Layer.covered) /. tt.Layer.wall)
        :: stats.residuals;
    (* A profile op's compiled execution, for the per-mode ratio rows. *)
    match (String.split_on_char '/' op.Op.label, tcheck.Op.runs) with
    | [ program; mode ], [ r ] when prepared.Op.accounting ->
        stats.compiled_rows <-
          {
            Op.program;
            mode;
            engine = Engine.Compiled;
            execute_s;
            inst = r.Interp.instructions;
          }
          :: stats.compiled_rows
    | _ -> ()
  end

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Rounds a run makes at least, so that each op kind's best time is the
   best of several. *)
let min_rounds = 5

(* Timed set-up bursts a run makes, spread over its measured seconds, and
   how long one burst lasts at least (it makes at least one set-up). *)
let setup_bursts = 6
let setup_burst_s = 0.05

(* One burst of set-ups, traced or not: the fastest time and the last
   result.  Each set-up is followed by an untimed full collection, so the
   next set-up or op starts from a collected heap. *)
let setup_burst ~tracing stats setup =
  let one () =
    if tracing then Layer.current := Pp_telemetry.Trace.create ~capacity:65536 ();
    let t0 = Unix.gettimeofday () in
    let p = setup () in
    let s = Unix.gettimeofday () -. t0 in
    Gc.full_major ();
    if tracing then add_layers stats (fst (Layer.self_times !Layer.current));
    Layer.current := Pp_telemetry.Trace.null;
    (s, p)
  in
  let rec go best spent =
    let s, p = one () in
    let best = Float.min best s and spent = spent +. s in
    if spent >= setup_burst_s then (best, p) else go best spent
  in
  go infinity 0.0

(* Whole rounds until [seconds] pass and [min_rounds] rounds ran.  Between
   rounds, [setup_again] makes the remaining set-up bursts at even steps
   of [seconds], so that set-up is timed across the run, like the ops, and
   not only at its start.

   The first round runs in the set-up's order, the later ones shuffled.
   Returns the rounds run and the peak resident set after the first
   round.  The high-water mark depends on the order of the ops (the
   major heap grows by steps, and where it steps depends on what ran
   before), and it creeps up as rounds go on; read after one round in a
   fixed order, it does not depend on the seed or on the host's speed. *)
let run_rounds ~tracing ~seconds ~rng ~setup_again stats (p : Op.prepared) =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let rounds = ref 0 and bursts = ref 1 and peak = ref 0.0 in
  while !rounds < min_rounds || elapsed () < seconds do
    if
      !bursts < setup_bursts
      && elapsed () >= float !bursts *. seconds /. float setup_bursts
    then begin
      setup_again ();
      incr bursts
    end;
    let order = if !rounds = 0 then p.Op.round else shuffle rng p.Op.round in
    Array.iter (run_op ~tracing ~prepared:p stats) order;
    if !rounds = 0 then peak := read_peak_rss_mb ();
    incr rounds
  done;
  for _ = !bursts to setup_bursts - 1 do
    setup_again ()
  done;
  (!rounds, !peak)

(* {2 Per-mode ratio rows} *)

let ratio_modes =
  "base"
  :: List.map Instrument.mode_name
       Instrument.[ Edge_freq; Flow_hw; Context_hw; Context_flow ]

(* The fastest execute time per (program, mode, engine). *)
let collapse rows =
  let keys =
    List.sort_uniq compare
      (List.map (fun (r : Op.exec_row) -> (r.program, r.mode, r.engine)) rows)
  in
  List.map
    (fun (program, mode, engine) ->
      let mine =
        List.filter
          (fun (r : Op.exec_row) ->
            (r.program, r.mode, r.engine) = (program, mode, engine))
          rows
      in
      {
        Op.program;
        mode;
        engine;
        execute_s =
          List.fold_left (fun m (r : Op.exec_row) -> Float.min m r.execute_s)
            infinity mine;
        inst = (List.hd mine).inst;
      })
    keys

let find rows ~program ~mode ~engine =
  List.find_opt
    (fun (r : Op.exec_row) ->
      r.program = program && r.mode = mode && r.engine = engine)
    rows

(* Ratio rows per program, printed, and their per-mode aggregates. *)
let mode_metrics rows =
  let programs =
    List.sort_uniq compare (List.map (fun (r : Op.exec_row) -> r.program) rows)
  in
  let pairs mode =
    List.filter_map
      (fun program ->
        match
          ( find rows ~program ~mode ~engine:Engine.Compiled,
            find rows ~program ~mode ~engine:Engine.Interpreted,
            find rows ~program ~mode:"base" ~engine:Engine.Compiled )
        with
        | Some c, Some i, Some b -> Some (program, c, i, b)
        | _ -> None)
      programs
  in
  List.concat_map
    (fun mode ->
      let ps = pairs mode in
      List.iter
        (fun (program, (c : Op.exec_row), (i : Op.exec_row), (b : Op.exec_row)) ->
          Printf.printf
            "row %-12s %-12s compiled_ms=%.3f interp_ms=%.3f base_ms=%.3f \
             compiled_speedup_x=%.3f instr_overhead_x=%.3f sim_inst_ratio=%.4f\n"
            program mode (c.execute_s *. 1e3) (i.execute_s *. 1e3)
            (b.execute_s *. 1e3)
            (ratio i.execute_s c.execute_s)
            (ratio c.execute_s b.execute_s)
            (ratio (float c.inst) (float b.inst)))
        ps;
      let total f = sum (List.map f ps) in
      let c_s = total (fun (_, c, _, _) -> c.Op.execute_s)
      and i_s = total (fun (_, _, i, _) -> i.Op.execute_s)
      and b_s = total (fun (_, _, _, b) -> b.Op.execute_s)
      and c_inst = total (fun (_, c, _, _) -> float c.Op.inst)
      and b_inst = total (fun (_, _, _, b) -> float b.Op.inst) in
      [
        ("vm.sim_minst_per_s." ^ mode, ratio c_inst c_s /. 1e6, "Minst/s");
        ("vm.compiled_speedup_x." ^ mode, ratio i_s c_s, "x");
      ]
      @
      if mode = "base" then []
      else
        [
          ("vm.instr_overhead_x." ^ mode, ratio c_s b_s, "x");
          ("vm.sim_inst_ratio." ^ mode, ratio c_inst b_inst, "x");
        ])
    ratio_modes

(* {2 Reports} *)

let layer_ms stats name =
  match Hashtbl.find_opt stats.layers name with
  | Some (s, n) when n > 0 -> s /. float n *. 1e3
  | _ -> 0.0

let count_mean name =
  match Hashtbl.find_opt Layer.counts name with
  | Some (s, n) when n > 0 -> s /. float n
  | _ -> 0.0

let machine_mean stats i =
  ratio (float stats.machine.(i)) (float stats.machine.(0))

let per_layer stats ~gc:(minor_words, major_collections) rows =
  let ms name = (name ^ "_ms", layer_ms stats name, "ms") in
  let agg_add_us p =
    let a =
      sorted (Option.value ~default:[] (Hashtbl.find_opt Layer.samples "run.serve.agg_add"))
    in
    percentile a p *. 1e6
  in
  let traced_ops = float (List.length stats.traced_walls) in
  let create = layer_ms stats "analysis.predict_create" in
  [
    ms "vm.execute";
    ( "vm.execute_share",
      ratio stats.traced_execute_s (sum stats.traced_walls),
      "share" );
  ]
  @ mode_metrics rows
  @ [
      ("machine.cycles", machine_mean stats 1, "count");
      ("machine.dmiss", machine_mean stats 2, "count");
      ("machine.imiss", machine_mean stats 3, "count");
      ms "minic.compile";
      ("instrument.ms", layer_ms stats "instrument", "ms");
      ms "vm.setup";
      ms "analysis.feasibility";
      ms "core.extract_path";
      ms "core.extract_edge";
      ms "core.extract_cct";
      ("core.cct.nodes", count_mean "core.cct.nodes", "count");
      ms "core.profile_io.encode";
      ms "core.profile_io.decode";
      ("core.profile_io.bytes", count_mean "core.profile_io.bytes", "bytes");
      ms "core.profile_wire.encode";
      ms "core.profile_wire.decode";
      ("core.profile_wire.bytes", count_mean "core.profile_wire.bytes", "bytes");
      ms "core.cct_io.encode";
      ms "core.cct_io.decode";
      ("core.cct_io.bytes", count_mean "core.cct_io.bytes", "bytes");
      ms "core.profile_merge";
      ms "core.cct_merge";
      ("run.serve.agg_add_us.p50", agg_add_us 50.0, "us");
      ("run.serve.agg_add_us.p99", agg_add_us 99.0, "us");
      ( "run.serve.peak_records",
        Option.value ~default:0.0
          (Hashtbl.find_opt Layer.peaks "run.serve.peak_records"),
        "count" );
      ms "analysis.check";
      ms "analysis.prove";
      ms "analysis.predict_create";
      ( "run.predict_oracle_ms",
        (if create > 0.0 then layer_ms stats "run.predict" -. create else 0.0),
        "ms" );
      ms "opt.summary";
      ms "opt.pgo";
      ms "opt.validate";
      ("opt.inlined", count_mean "opt.inlined", "count");
      ("opt.data_dropped", count_mean "opt.data_dropped", "share");
      ("gc.minor_mwords", ratio (minor_words /. 1e6) traced_ops, "Mwords");
      ( "gc.major_collections",
        ratio (float major_collections) traced_ops,
        "count" );
      ( "trace.overhead_pct",
        100.0
        *. (ratio (sum stats.traced_walls) (sum stats.paired_untraced_walls)
           -. 1.0),
        "%" );
      ( "trace.accounting_residual_pct",
        100.0 *. List.fold_left max 0.0 stats.residuals,
        "%" );
    ]

(* End-to-end timings are best-of-rounds: each op kind runs once per
   round, and every op's time is replaced by its kind's fastest round
   before the figures are taken.  On a shared host, noise only ever adds
   time, and it moves a run's mean by as much as a fifth; the fastest of
   several rounds does not move with it.  The untransformed figures are
   printed on the "raw op times" line. *)
let end_to_end stats ~setup_s ~peak_rss_mb =
  let kinds =
    Hashtbl.fold (fun label k acc -> (label, k) :: acc) stats.kinds []
    |> List.sort (fun (_, a) (_, b) -> compare a.best b.best)
  in
  List.iter
    (fun (label, k) ->
      Printf.printf "kind %-34s best_ms=%.3f mean_ms=%.3f over %d\n" label
        (k.best *. 1e3)
        (k.total /. float k.count *. 1e3)
        k.count)
    kinds;
  let n = List.fold_left (fun s (_, k) -> s + k.count) 0 kinds in
  (* nearest rank over the ops, each counted at its kind's best time *)
  let best_percentile p =
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float n))) in
    let rec walk seen = function
      | [ (_, k) ] -> k.best
      | (_, k) :: rest ->
          if seen + k.count >= rank then k.best else walk (seen + k.count) rest
      | [] -> 0.0
    in
    walk 0 kinds
  in
  let round_s = sum (List.map (fun (_, k) -> k.best) kinds) in
  let round_inst = List.fold_left (fun s (_, k) -> s + k.inst) 0 kinds in
  (* Chosen for [min_rounds] rounds, so it does not change with the number
     of rounds a run fits in, and always has ten ops beyond it. *)
  let tail = tail_percentile (min_rounds * List.length kinds) in
  Printf.printf "op_tail_ms is p%g over %d ops\n" tail n;
  let busy = sum (List.map (fun (_, k) -> k.total) kinds) in
  Printf.printf "raw op times: ops_per_s=%.4f mean_ms=%.4f\n"
    (ratio (float n) busy)
    (ratio busy (float n) *. 1e3);
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", ratio (float (List.length kinds)) round_s, "1/s");
    ("op_p50_ms", best_percentile 50.0 *. 1e3, "ms");
    ("op_tail_ms", best_percentile tail *. 1e3, "ms");
    ("profiled_minst_per_s", ratio (float round_inst) round_s /. 1e6, "Minst/s");
    ("peak_rss_mb", peak_rss_mb, "MB");
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct stats metrics =
  let failed = List.length stats.failures in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct stats.attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

(* {2 Modes} *)

let load_reference () = Session.load_reference reference_path

let run ~workload ~seed ~seconds ~tracing =
  let reference = load_reference () in
  let stats = new_stats () in
  Layer.enabled := tracing;
  let setup = prepare ~reference ~seed workload in
  let setup_s, prepared = setup_burst ~tracing stats setup in
  let setup_s = ref setup_s in
  (* Later set-ups are timed only; the run's ops use the first. *)
  let setup_again () =
    let gc = (!Layer.minor_words, !Layer.major_collections) in
    setup_s := Float.min !setup_s (fst (setup_burst ~tracing stats setup));
    Layer.minor_words := fst gc;
    Layer.major_collections := snd gc
  in
  let rng = Random.State.make [| seed |] in
  (* GC work is counted over the measured ops only *)
  Layer.minor_words := 0.0;
  Layer.major_collections := 0;
  let rounds, peak_rss_mb =
    run_rounds ~tracing ~seconds ~rng ~setup_again stats prepared
  in
  let gc = (!Layer.minor_words, !Layer.major_collections) in
  let setup_s = !setup_s in
  let finish = prepared.Op.finish () in
  Option.iter (Printf.eprintf "ledger: %s: %s\n" workload) finish;
  List.iter
    (fun (label, why) -> Printf.eprintf "ledger: %s failed: %s\n" label why)
    (List.rev stats.failures);
  let failed = List.length stats.failures in
  Printf.printf "workload=%s seed=%d rounds=%d ops=%d failed=%d error_rate=%g\n"
    workload seed rounds stats.attempted failed
    (ratio (float failed) (float stats.attempted));
  if tracing then begin
    let rows = collapse (stats.compiled_rows @ prepared.Op.extras ()) in
    let metrics = per_layer stats ~gc rows in
    let worst = List.fold_left max 0.0 stats.residuals in
    let accounted = worst <= accounting_tolerance in
    if not accounted then
      Printf.eprintf
        "ledger: layer accounting: spans leave %.2f%% of an op uncovered \
         (tolerance %.0f%%)\n"
        (100.0 *. worst)
        (100.0 *. accounting_tolerance);
    print_result ~correct:(failed = 0 && finish = None && accounted) stats metrics
  end
  else
    print_result ~correct:(failed = 0 && finish = None) stats
      (end_to_end stats ~setup_s ~peak_rss_mb)

(* Reference digests come from the interpreter tier only: the compiled
   tier is the code under test. *)
let regen ~engine =
  if engine <> "interp" then begin
    prerr_endline
      "ledger regen: references are made with the interpreter only \
       (--engine interp); refusing the compiled tier";
    exit 2
  end;
  let lines =
    List.concat_map
      (fun (programs, modes) ->
        List.concat_map
          (fun name ->
            let p = Profile_ops.load name in
            let base = Session.baseline ~engine:Engine.Interpreted p.Profile_ops.prog in
            List.map
              (fun mode ->
                let o =
                  Session.profile ~engine:Engine.Interpreted ~mode
                    ~program_hash:p.Profile_ops.hash p.Profile_ops.prog
                in
                Session.entry_to_line (Session.key ~program:name ~mode)
                  (Session.entry_of ~base_inst:base.Interp.instructions
                     ~base_cycles:base.Interp.cycles o))
              modes)
          programs)
      [
        (Profile_ops.context_programs, Profile_ops.context_modes);
        (Profile_ops.flow_programs, Profile_ops.flow_modes);
      ]
  in
  let oc = open_out reference_path in
  output_string oc
    "# Reference digests for the profile workloads, made by\n\
     # 'ledger.exe regen' on the interpreter tier.  Do not edit.\n";
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.printf "wrote %d entries to %s\n" (List.length lines) reference_path

let selftest () =
  let reference = load_reference () in
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let labels p rng = Array.map (fun (o : Op.t) -> o.Op.label) (shuffle rng p.Op.round) in
  List.iter
    (fun w ->
      let p = prepare ~reference ~seed:1 w () in
      expect (w ^ ": op list is non-empty") (Array.length p.Op.round > 0))
    workloads;
  let ctx = prepare ~reference ~seed:1 "profile-context" () in
  let order seed = labels ctx (Random.State.make [| seed |]) in
  expect "the same seed gives the same op order" (order 7 = order 7);
  expect "another seed gives another op order" (order 7 <> order 8);
  (* A corrupted reference digest must fail exactly its op. *)
  let corrupt_key = Session.key ~program:"swim_like" ~mode:Instrument.Flow_hw in
  let corrupted =
    List.map
      (fun (k, e) ->
        if k = corrupt_key then
          (k, { e with Session.profile_digest = String.make 32 '0' })
        else (k, e))
      reference
  in
  let flow = prepare ~reference:corrupted ~seed:1 "profile-flow" () in
  let stats = new_stats () in
  Array.iter (run_op ~tracing:false ~prepared:flow stats) flow.Op.round;
  expect "a corrupted reference digest raises error_rate above 0"
    (List.map fst stats.failures = [ corrupt_key ]);
  (* A shard with a foreign program hash is a failed op, not a crash. *)
  let ingest, foreign = Ingest.setup_with_foreign ~reference ~seed:1 () in
  let stats = new_stats () in
  Array.iter (run_op ~tracing:false ~prepared:ingest stats) ingest.Op.round;
  Array.iter (run_op ~tracing:false ~prepared:ingest stats) foreign;
  expect "foreign-hash shards count as failed ops"
    (List.length stats.failures = Array.length foreign);
  Array.iter (run_op ~tracing:false ~prepared:ingest stats) ingest.Op.round;
  expect "the aggregates stay intact after a refused shard"
    (List.length stats.failures = Array.length foreign
    && ingest.Op.finish () = None);
  if !failures > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0
  and trace = ref 0 and engine = ref "interp" and anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--engine", Arg.Set_string engine, "ENGINE regen only: interp");
    ]
  in
  let usage = "ledger.exe [regen|selftest] --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> anon := a :: !anon) usage;
  match !anon with
  | [ "regen" ] -> regen ~engine:!engine
  | [ "selftest" ] -> selftest ()
  | [] when List.mem !workload workloads ->
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~tracing:(!trace = 1)
  | _ ->
      prerr_endline usage;
      exit 2
