(* 7.2 comparison: Goldberg-Hall call-stack sampling vs the CCT.

   Sampling approximates context costs and stores one bucket per distinct
   stack (unbounded); the CCT is exact per context and bounded.  This bench
   quantifies both claims on recursion-free workloads, where a sampled
   stack corresponds one-to-one to a CCT context. *)

module W = Pp_workloads.Workload
module Registry = Pp_workloads.Registry
module Engine = Pp_vm.Engine
module Stack_sampler = Pp_vm.Stack_sampler
module Event = Pp_machine.Event
module Driver = Pp_instrument.Driver
module Instrument = Pp_instrument.Instrument
module Cct = Pp_core.Cct
module Runtime = Pp_vm.Runtime

let heading title = Printf.printf "\n==== %s ====\n\n" title

(* Exact inclusive cycle fractions per context, from a Context+HW run with
   pic1 = cycles. *)
let exact_fractions w =
  let session =
    Driver.prepare ~max_instructions:Runs.budget
      ~pics:(Event.Dcache_misses, Event.Cycles)
      ~mode:Instrument.Context_hw (Runs.program_of w)
  in
  ignore (Driver.run session);
  let cct = Driver.cct session in
  let total =
    match Cct.children (Cct.root cct) with
    | [ main ] -> (Cct.data main).Runtime.metrics.(2)
    | _ -> failwith "expected a single top-level context"
  in
  let table = Hashtbl.create 64 in
  Cct.iter
    (fun n ->
      if Cct.parent n <> None then
        Hashtbl.replace table (Cct.context n)
          (float_of_int (Cct.data n).Runtime.metrics.(2)
          /. float_of_int (max total 1)))
    cct;
  (table, Cct.num_nodes cct - 1)

(* Sampled inclusive fractions: a stack sample counts towards every prefix
   of the stack. *)
let sampled_fractions w ~interval =
  let eng = Engine.create ~max_instructions:Runs.budget (Runs.program_of w) in
  let sampler = Stack_sampler.create (Engine.vm eng) ~interval in
  ignore (Engine.run eng);
  let samples = Stack_sampler.samples sampler in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 samples in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (stack, hits) ->
      let rec prefixes acc = function
        | [] -> ()
        | p :: rest ->
            let ctx = acc @ [ p ] in
            Hashtbl.replace table ctx
              (hits + Option.value ~default:0 (Hashtbl.find_opt table ctx));
            prefixes ctx rest
      in
      prefixes [] stack)
    samples;
  let fractions = Hashtbl.create 64 in
  Hashtbl.iter
    (fun ctx hits ->
      Hashtbl.replace fractions ctx
        (float_of_int hits /. float_of_int (max total 1)))
    table;
  (fractions, List.length samples, total)

let run () =
  heading
    "7.2 comparison: stack sampling vs the CCT (inclusive cycle fractions \
     per context)";
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      let exact, cct_nodes = exact_fractions w in
      Printf.printf "%s: CCT has %d records (bounded, exact)\n" name
        cct_nodes;
      List.iter
        (fun interval ->
          let sampled, distinct_stacks, total =
            sampled_fractions w ~interval
          in
          (* Mean absolute error over contexts with >= 1% of cycles. *)
          let errs = ref [] in
          Hashtbl.iter
            (fun ctx fr ->
              if fr >= 0.01 then
                let approx =
                  Option.value ~default:0.0 (Hashtbl.find_opt sampled ctx)
                in
                errs := Float.abs (fr -. approx) :: !errs)
            exact;
          let mean =
            match !errs with
            | [] -> 0.0
            | es ->
                List.fold_left ( +. ) 0.0 es /. float_of_int (List.length es)
          in
          Printf.printf
            "  interval=%-7d samples=%-7d distinct stacks=%-5d mean |err| \
             on hot contexts=%.3f\n"
            interval total distinct_stacks mean)
        [ 50_000; 10_000; 2_000 ])
    [ "vortex_like"; "compress_like"; "perl_like" ]
