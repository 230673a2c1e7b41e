(** A conventional file-based filesystem with data journaling.

    This is the substrate of the Fig-2 baseline and rgpdOS's "second
    filesystem" for non-personal data.  It deliberately reproduces the two
    properties the paper's introduction criticises in traditional
    filesystems:

    - {b coarse granularity}: files are opaque byte strings; the FS has no
      notion of typed personal-data pieces;
    - {b journal retention}: in data-journaling mode (ext3's
      [data=journal]) every write — including writes of personal data — is
      first copied into the on-device journal ring, where it survives the
      logical deletion of the file until enough later traffic laps the
      ring.  A DB engine running above this FS can "delete" a subject and
      still leave their data recoverable from the medium, which is the
      right-to-be-forgotten violation measured by experiment E3.

    The implementation is a real (simulated-device-backed) filesystem:
    hierarchical directories, an inode table, a block allocator, a journal
    with crash recovery, and durable metadata checkpoints. *)

type t

type error =
  | Not_found of string
  | Already_exists of string
  | Not_a_directory of string
  | Is_a_directory of string
  | Directory_not_empty of string
  | No_space
  | Invalid_path of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type stat = {
  inode : int;
  is_dir : bool;
  size : int;
  mtime : Rgpdos_util.Clock.ns;
}

val format : Rgpdos_block.Block_device.t -> journal_blocks:int -> t
(** [format dev ~journal_blocks] writes a fresh filesystem.  The journal
    occupies [journal_blocks] device blocks used as a ring. *)

val mount : Rgpdos_block.Block_device.t -> (t, string) result
(** Mount an existing filesystem: load the last metadata checkpoint and
    replay any journal records written after it (crash recovery).  Journal
    damage does not fail the mount: replay stops at the first bad frame and
    the outcome is reported by {!replay_report}/{!replay_warning}. *)

val device : t -> Rgpdos_block.Block_device.t

val replay_report : t -> Rgpdos_block.Journal_ring.replay_summary option
(** The mount-time journal replay summary — how many records were applied
    and why replay stopped.  [None] on a freshly formatted filesystem. *)

val replay_warning : t -> string option
(** Set when a correctly framed journal record failed to decode as an
    operation during mount-time replay (application stopped there). *)

(** {1 Namespace operations} *)

val mkdir : t -> string -> (unit, error) result
val create : t -> string -> (unit, error) result
(** Create an empty regular file. *)

val write_file : t -> string -> string -> (unit, error) result
(** Replace the file's contents (creating it if absent).  Data goes through
    the journal first, then to in-place data blocks.  A write whose
    journal record would not fit the ring is [Error No_space], with
    nothing created or allocated. *)

val append_file : t -> string -> string -> (unit, error) result
val read_file : t -> string -> (string, error) result

val delete : ?secure:bool -> t -> string -> (unit, error) result
(** Remove a file.  With [~secure:true] the data blocks are zeroed before
    being freed — but, as on a real journaling FS, the journal copies of
    past writes are {i not} scrubbed.  Directories must be empty. *)

val rename : t -> string -> string -> (unit, error) result
val list_dir : t -> string -> (string list, error) result
val stat : t -> string -> (stat, error) result
val exists : t -> string -> bool

(** {1 Durability} *)

val checkpoint : t -> unit
(** Flush metadata to the device and advance the journal tail.  Checkpointed
    journal blocks are {i not} zeroed (they are merely eligible for reuse),
    matching real journal behaviour. *)

val scrub_journal : t -> unit
(** Zero all journal blocks not holding live (un-checkpointed) records.
    This is the remediation a GDPR-aware FS would need; exposed so
    experiments can quantify its cost. *)

val crash_and_remount : t -> (t, string) result
(** Simulate a power failure: discard all in-memory state and [mount] the
    device again.  Returns the recovered filesystem. *)

(** {1 Introspection} *)

val journal_stats : t -> int * int
(** [(live_records, journal_blocks_in_use)]. *)

val fsck : t -> (unit, string list) result
(** Consistency check: every directory entry points to a live inode, every
    allocated block is owned by exactly one inode or the journal, sizes
    match.  Returns the list of inconsistencies if any. *)
