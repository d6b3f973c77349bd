(* The stack sampler (the 7.2 comparison profiler), on the default engine. *)

module Interp = Pp_vm.Interp
module Engine = Pp_vm.Engine
module Stack_sampler = Pp_vm.Stack_sampler

let src =
  {|
int sink;
void inner(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { sink = sink + i; }
}
void outer() { inner(2000); }
void main() {
  int r;
  for (r = 0; r < 20; r = r + 1) { outer(); inner(500); }
  print(sink);
}
|}

let run ~interval =
  let prog = Pp_minic.Compile.program ~name:"sampled" src in
  let eng = Engine.create prog in
  let sampler =
    Option.map
      (fun i -> Stack_sampler.create (Engine.vm eng) ~interval:i)
      interval
  in
  let r = Engine.run eng in
  (sampler, r)

let test_sample_counts () =
  let sampler, r = run ~interval:(Some 1000) in
  let samples = Stack_sampler.samples (Option.get sampler) in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 samples in
  let expected = r.Interp.cycles / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "total samples %d ~ cycles/interval %d" total expected)
    true
    (abs (total - expected) <= 1)

let test_sampling_transparent () =
  (* Sampling must not perturb execution at all (it is outside the machine
     model, like an external interrupt-based profiler). *)
  let _, r1 = run ~interval:(Some 500) in
  let _, r2 = run ~interval:None in
  Alcotest.(check int) "same cycles" r2.Interp.cycles r1.Interp.cycles;
  Alcotest.(check bool) "same output" true
    (r1.Interp.output = r2.Interp.output)

let test_sampling_shape () =
  let sampler, _ = run ~interval:(Some 200) in
  let samples = Stack_sampler.samples (Option.get sampler) in
  (* Stacks are rooted at main. *)
  List.iter
    (fun (stack, _) ->
      match stack with
      | "main" :: _ -> ()
      | s ->
          Alcotest.failf "stack not rooted at main: %s"
            (String.concat "." s))
    samples;
  (* inner-under-outer dominates inner-under-main 4:1 in work; sampling
     should agree within a factor of two. *)
  let hits ctx =
    Option.value ~default:0 (List.assoc_opt ctx samples)
  in
  let via_outer = hits [ "main"; "outer"; "inner" ] in
  let direct = hits [ "main"; "inner" ] in
  Alcotest.(check bool)
    (Printf.sprintf "outer-inner (%d) >> direct inner (%d)" via_outer direct)
    true
    (via_outer > 2 * direct)

let suite =
  [
    Alcotest.test_case "sample counts track cycles" `Quick test_sample_counts;
    Alcotest.test_case "sampling does not perturb" `Quick
      test_sampling_transparent;
    Alcotest.test_case "sampled stacks are sensible" `Quick
      test_sampling_shape;
  ]
