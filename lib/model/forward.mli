(** Deterministic forking execution of a hypothesized network (§3.2).

    Advances an {!Mstate.t} to a target time, injecting the sender's own
    transmissions, through every weighted way the nondeterministic
    elements could have behaved. The ISender's two jobs use two walks over
    the same transition rules: the Bayesian filter calls {!run}, which
    returns each way as an outcome with its final state and the packet
    deliveries it produces, and scores the outcomes against the observed
    ACKs; the planner calls {!expected}, which prices candidate
    transmission times as the probability-weighted value of a rollout's
    deliveries, merging fork children whose states are identical instead
    of enumerating them.

    Nondeterminism policy:
    - [Loss] whose downstream contains no queue ("last mile", as the paper
      recommends) multiplies each delivery's [survive_p] instead of
      forking — mathematically identical, exponentially cheaper. A [Loss]
      in front of a queue always forks, whatever [loss_mode] says, because
      its consequences linger.
    - Memoryless gates and [Either]s fork at decision epochs of [epoch]
      seconds with the exact two-state Markov flip probability
      [(1 - exp (-2 epoch / mtts)) / 2]; with [fork_gates = false] they
      are frozen in their current state (certainty-equivalent planning).
    - [Jitter] forks per packet.
    - Periodic gates are deterministic and never fork.

    Cost causes are counted in the metrics registry (while it is enabled):
    [model.forward.forks] (transitions with more than one continuation,
    both walks), [model.forward.merged] ({!expected} memo hits) and
    [model.forward.cap_drops] (branches {!run} discarded over
    [max_branches], plus continuations {!expected} priced at 0 once its
    memo budget was spent). *)

type config = {
  loss_mode : [ `Likelihood | `Fork ];
      (** [`Fork] forces forking even at last-mile losses (used by tests
          to validate the likelihood shortcut). *)
  fork_gates : bool;
  epoch : float;  (** Gate decision-epoch length, seconds. *)
  max_branches : int;
      (** Per-call bound on the work of a forking walk. In {!run}: the
          soft cap on simultaneous branches; beyond it the lightest branch
          is discarded (its mass is lost; callers renormalize). In
          {!expected}: the number of distinct fork-child states whose
          continuation value is computed and memoized. *)
}

val default_config : config
(** Likelihood losses, forking gates, 1 s epochs, 1024 branches. *)

type delivery = {
  time : Utc_sim.Timebase.t;
  packet : Utc_net.Packet.t;
  survive_p : float;
      (** Probability the delivery really happened, given last-mile
          losses. 1 for fork-mode branches. *)
}

type outcome = {
  state : Mstate.t;  (** At [until]. *)
  logw : float;  (** Log-weight of this branch relative to siblings. *)
  deliveries : delivery list;  (** Ascending in time; all flows. *)
}

type prepared

val prepare : config -> Utc_net.Compiled.t -> prepared
(** Precomputes per-node analysis (last-mile losses); reuse across runs. *)

val config_of : prepared -> config
val compiled_of : prepared -> Utc_net.Compiled.t

val plan_variant : prepared -> prepared
(** The [fork_gates = false] variant of this model (certainty-equivalent
    planning over the gate process), memoized on first use so repeated
    decisions share one analysis. Returns the argument itself when gate
    forking is already off. Not thread-safe: call from the serial section
    of a decision, never inside a pooled job. *)

val run :
  ?until_prio:int ->
  prepared ->
  Mstate.t ->
  sends:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  until:Utc_sim.Timebase.t ->
  outcome list
(** [sends] are the endpoint's transmissions in [(state.now, until]],
    ascending; each enters at the entry of its packet's flow.

    Events at exactly [until] are processed only if their priority class
    is strictly below [until_prio] (default: all of them). A sender waking
    at priority [Evprio.arrival flow] passes that class here so the belief
    stops exactly where the ground-truth engine stood when the wakeup
    handler ran — same-instant cross-traffic arrivals that the engine has
    not yet processed stay pending.
    @raise Invalid_argument on a send before [state.now] or after
    [until]. *)

val expected :
  prepared ->
  Mstate.t ->
  sends:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  until:Utc_sim.Timebase.t ->
  value:(delivery list -> float) ->
  float
(** [expected p state ~sends ~until ~value] is
    [Σ exp logw * value deliveries] over the outcomes [run p state ~sends
    ~until] would return without a branch cap, computed without
    enumerating them. [sends] and [until] are as in {!run} (all events at
    [until] are processed).

    [value] must be additive over concatenation —
    [value (a @ b) = value a +. value b], up to float rounding, and so
    [value [] = 0] — and it is applied to consecutive runs of deliveries
    in time order: a stretch with no fork is summed once, at its end or at
    the fork that ends it, and each fork child's continuation is valued
    once per distinct {!Mstate.canonical} state and reused wherever that
    state recurs within the call.

    A rollout that never forks adds the same floats in the same order as
    summing [run]'s single outcome from zero, so the two agree bit for
    bit. Once [max_branches] distinct continuations have been valued, a
    continuation from a state not seen before contributes 0 (counted in
    [model.forward.cap_drops]); the result stays deterministic.
    @raise Invalid_argument on a send before [state.now] or after
    [until]. *)
