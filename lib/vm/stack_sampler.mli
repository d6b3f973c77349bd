(** The Goldberg–Hall style comparison profiler of the paper's §7.2: every
    [interval] simulated cycles, record the current call stack.

    Sampling is approximate by construction (samples land on block
    boundaries) and its data is unbounded (one bucket per distinct stack) —
    the two drawbacks the paper holds against it.  The sampler is an
    {!Interp.observer}: it keeps its own stack from the [enter]/[leave]
    events and samples on [tick], so it behaves identically under either
    engine and does not perturb the run. *)

type t

(** Install a sampler on [vm] before running it.
    @raise Invalid_argument if [interval <= 0]. *)
val create : Interp.t -> interval:int -> t

(** Distinct sampled call stacks (outermost procedure first, [main]
    included) with their hit counts, sorted; valid after the run. *)
val samples : t -> (string list * int) list
