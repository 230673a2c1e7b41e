(** Bounded LRU cache with a configurable entry budget.

    A single instance backs every decoded-object class in DBFS (membranes
    and records), so one budget bounds resident memory and all classes
    compete under the same eviction policy.  All operations are O(1).

    The cache bounds host memory only: callers charge the same simulated
    device cost on hit and miss (warm == cold), so eviction is invisible to
    the cost model and shows up only in the hit/miss/eviction counters. *)

type 'a t

val create : budget:int -> 'a t
(** Fresh cache holding at most [max 1 budget] entries. *)

val find : 'a t -> string -> 'a option
(** Lookup; promotes the entry to most-recently-used on a hit. *)

val put : 'a t -> string -> 'a -> int
(** Insert or replace (promoting to MRU), then evict from the LRU end until
    the budget holds again.  Returns the number of entries evicted. *)

val remove : 'a t -> string -> unit
(** Drop one entry (coherence invalidation); no-op when absent. *)

val clear : 'a t -> unit
(** Drop everything (counters are preserved). *)

val set_budget : 'a t -> int -> int
(** Change the entry budget (clamped to >= 1), evicting immediately if the
    cache is over the new budget.  Returns the number evicted. *)

val resident : 'a t -> int
(** Number of entries currently held. *)

val budget : 'a t -> int

val evictions : 'a t -> int
(** Cumulative count of budget evictions (not explicit invalidations). *)
