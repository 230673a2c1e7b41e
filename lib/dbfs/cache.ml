(* Bounded LRU cache with a configurable entry budget.

   One cache instance backs every decoded-object class in DBFS (membranes
   and records) so a single budget bounds resident memory and all classes
   compete under one eviction policy.  The implementation is a
   string-keyed hash table over an intrusive doubly-linked recency list:
   every operation is O(1).

   The cache is a pure memory bound: hits and misses are *charged* the same
   simulated device cost by the caller (warm == cold), so eviction decisions
   never show up in the cost model — only in host memory and in the
   hit/miss/eviction counters. *)

type 'a node = {
  n_key : string;
  mutable n_value : 'a;
  mutable n_prev : 'a node option; (* towards the MRU end *)
  mutable n_next : 'a node option; (* towards the LRU end *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  mutable mru : 'a node option;
  mutable lru : 'a node option;
  mutable budget : int;
  mutable evictions : int;
}

let create ~budget =
  {
    tbl = Hashtbl.create 256;
    mru = None;
    lru = None;
    budget = max 1 budget;
    evictions = 0;
  }

let resident t = Hashtbl.length t.tbl
let budget t = t.budget
let evictions t = t.evictions

let unlink t n =
  (match n.n_prev with
  | Some p -> p.n_next <- n.n_next
  | None -> t.mru <- n.n_next);
  (match n.n_next with
  | Some s -> s.n_prev <- n.n_prev
  | None -> t.lru <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front t n =
  n.n_next <- t.mru;
  n.n_prev <- None;
  (match t.mru with Some m -> m.n_prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

(* Evict from the LRU end until the budget holds; returns how many entries
   were evicted so the caller can account for them. *)
let enforce_budget t =
  let count = ref 0 in
  while Hashtbl.length t.tbl > t.budget do
    match t.lru with
    | None -> failwith "Cache: recency list out of sync"
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.n_key;
        t.evictions <- t.evictions + 1;
        incr count
  done;
  !count

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.n_value

let put t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some n ->
      n.n_value <- value;
      unlink t n;
      push_front t n
  | None ->
      let n = { n_key = key; n_value = value; n_prev = None; n_next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n);
  enforce_budget t

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl key

let clear t =
  Hashtbl.reset t.tbl;
  t.mru <- None;
  t.lru <- None

let set_budget t b =
  t.budget <- max 1 b;
  enforce_budget t
