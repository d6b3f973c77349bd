(* One benchmark operation: a library call sequence, the same one a [pp]
   subcommand makes.  [exec] is the timed part; it returns the untimed
   verification of its own result. *)

type check = {
  failure : string option;  (** why the op's result differs from the answer *)
  profiled_inst : int;
      (** uninstrumented-program instructions whose profile this op produced
          or consumed *)
  runs : Pp_vm.Interp.result list;  (** executions the op observed *)
}

type t = {
  label : string;  (** program/mode/kind, unique within a workload round *)
  exec : unit -> unit -> check;
}

let ok ?(runs = []) profiled_inst = { failure = None; profiled_inst; runs }
let fail ?(runs = []) fmt =
  Printf.ksprintf (fun m -> { failure = Some m; profiled_inst = 0; runs }) fmt

(* The first failure of a list of named conditions, as one check. *)
let expect ?runs profiled_inst conditions =
  match List.find_opt (fun (_, holds) -> not holds) conditions with
  | None -> ok ?runs profiled_inst
  | Some (what, _) -> fail ?runs "%s" what

(* One execution measured for the per-mode ratio rows: [mode] is a mode
   name or "base" (the uninstrumented program). *)
type exec_row = {
  program : string;
  mode : string;
  engine : Pp_vm.Engine.kind;
  execute_s : float;
  inst : int;  (** simulated instructions executed *)
}

(* A workload after set-up: its round of ops (run in a seeded shuffled
   order, whole rounds at a time), a final check after the last round,
   and the extra executions a traced run makes for the ratio rows.
   [accounting] asks the traced run to check that the op's layer spans
   cover its wall time.  [fresh_heap] ops each stand for one [pp]
   command, a process that starts with an empty heap: the harness runs a
   full major collection (untimed) before each, so no op pays for the
   garbage of the one before. *)
type prepared = {
  round : t array;
  finish : unit -> string option;
  extras : unit -> exec_row list;
  accounting : bool;
  fresh_heap : bool;
}

let no_finish () = None
let no_extras () = []
