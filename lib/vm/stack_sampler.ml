module Machine = Pp_machine.Machine

type t = {
  mutable stack : string list;  (* innermost first *)
  mutable next : int;  (* simulated cycle of the next sample *)
  counts : (string list, int ref) Hashtbl.t;
}

let create vm ~interval =
  if interval <= 0 then invalid_arg "Stack_sampler.create: interval <= 0";
  let machine = Interp.machine vm in
  let t =
    {
      stack = [];
      next = Machine.now machine + interval;
      counts = Hashtbl.create 64;
    }
  in
  (* A block can span several intervals: it earns one sample per interval
     boundary it crossed, all attributed to the stack at its end. *)
  let tick () =
    while Machine.now machine >= t.next do
      (match Hashtbl.find_opt t.counts t.stack with
      | Some r -> incr r
      | None -> Hashtbl.replace t.counts t.stack (ref 1));
      t.next <- t.next + interval
    done
  in
  Interp.observe vm
    {
      Interp.no_observer with
      enter = (fun name -> t.stack <- name :: t.stack);
      leave =
        (fun () ->
          match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
      tick;
    };
  t

let samples t =
  Hashtbl.fold (fun k v acc -> (List.rev k, !v) :: acc) t.counts []
  |> List.sort compare
