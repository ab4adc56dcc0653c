(** Deterministic flight recorder: event journaling, replay
    verification, and a crash black box.

    The simulator's claim to determinism is only as strong as the tools
    that can falsify it. This module records every {!Engine} dispatch as
    a compact record — monotone sequence number, virtual time, the
    interned [(component, cvm, stage)] label the event was scheduled
    under, the sequence number of the dispatch that {e scheduled} it
    (the causal parent edge), and the number of {!Rng} draws the handler
    made — interleaved with {!Chaos} injections, supervisor lifecycle
    verdicts and capability-fault records, streamed to a versioned
    [*.journal.jsonl] file.

    Three consumers sit on top:

    - {b replay verification} ([netrepro replay]): re-execute the run
      with the recorded seed in {!verify_against} mode; every dispatch
      is compared against the journal and the first mismatch is
      reported with a ±K-event context window.
    - {b first-divergence diffing} ([netrepro jdiff]): load two
      journals, find the first diverging sequence number, and walk
      parent edges back to the last common ancestor ([Core.Jdiff]).
    - {b crash black box}: an always-on bounded ring of the last N
      completed dispatch records — preallocated parallel arrays, a few
      unboxed stores per event and no I/O until a dump — which
      [Capvm.Supervisor] serializes alongside its verdict on any trap.

    Like {!Metrics} and {!Profile}, the recorder is process-global and
    zero-cost-when-disabled: with neither recording nor verification
    armed, the engine's per-dispatch overhead is the ring-slot stores
    and one branch — Fig. 4 / Table II outputs are bit-identical with
    journaling on or off (regression-tested).

    {b File format} ([netrepro-journal/1]): JSONL. Line 1 is a header
    [{"schema": "netrepro-journal/1", ...}] carrying caller metadata
    (experiment ids, seed, profile) used by replay. Subsequent lines are
    tagged by ["t"]: ["l"] interns a label (file-local [id] — journals
    are byte-comparable across processes), ["d"] is a dispatch
    [{"q": seq, "at": ns, "l": label, "p": parent, "r": rng_draws}],
    and ["c"]/["s"]/["f"] are chaos-injection, supervisor-transition
    and capability-fault annotations stamped with the in-flight
    dispatch's [q]. The loader also accepts [netrepro-journal/2] files
    (schema 1 plus a per-dispatch ["sh"] field, which it ignores). *)

(** {1 Records} *)

type dispatch = {
  d_seq : int;  (** Dispatch order, 0-based, monotone. *)
  d_at_ns : int;  (** Virtual time (integral ns). *)
  d_label : string;  (** ["component:cvm:stage"]. *)
  d_parent : int;
      (** Seq of the dispatch whose handler scheduled this event; [-1]
          when scheduled outside any dispatch (setup code). *)
  d_rng : int;  (** {!Rng} draws made by the handler. *)
}

val dispatch_json : dispatch -> Json.t

(** {1 Hot path} — called by {!Engine.step}; everything else treats
    these as internal. *)

val parent_seq : unit -> int
(** Seq of the currently dispatching event, [-1] outside dispatch.
    {!Engine.schedule_at_l} captures this at schedule time as the new
    handle's causal parent. *)

val begin_dispatch : at:Time.t -> parent:int -> Profile.key -> unit
(** Open dispatch [next_seq]: snapshot {!Rng.draws} and stash the
    label/parent. Dispatches must not nest (the engine loop is not
    reentrant). *)

val end_dispatch : unit -> unit
(** Close the in-flight dispatch: compute the RNG-draw delta, charge it
    via {!Profile.add_rng_draws}, write the black-box ring slot, then
    stream (recording) or compare (verifying) the record. The engine
    calls this on both normal and exceptional handler exit. *)

(** {1 Annotations} — no-ops unless recording. *)

val note_chaos : kind:string -> id:int -> at_ns:float -> target:string -> unit
val note_supervisor : cvm:string -> old_state:string -> new_state:string -> unit
val note_fault : cvm:string -> fault:string -> unit

(** {1 Recording} *)

type sink = To_file of string | To_buffer of Buffer.t

val record_to : ?header:(string * Json.t) list -> sink -> unit
(** Arm recording: stop any active recording/verification, reset the
    dispatch sequence to 0, and emit the header line ([header] fields
    are appended after ["schema"]). [To_buffer] clears the buffer
    first. *)

val recording : unit -> bool
val verifying : unit -> bool

val stop : unit -> unit
(** Flush and close the active sink (if any) and disarm. Idempotent. *)

val reset : unit -> unit
(** {!stop}, reset sequence numbers and clear the black-box ring.
    Tests call this between cases. *)

(** {1 Loading} *)

type loaded
(** A parsed journal: header plus column arrays of dispatch records. *)

val load : string -> (loaded, string) result
val load_string : string -> (loaded, string) result

val header : loaded -> Json.t
val dispatch_count : loaded -> int

val aux_counts : loaded -> int * int * int
(** [(chaos, supervisor, fault)] annotation-line counts. *)

val dispatch_at : loaded -> int -> dispatch
(** 0-based; out-of-range label ids render as ["<label#N>"]. *)

val context : loaded -> seq:int -> k:int -> dispatch list
(** The recorded dispatches with seq in [[seq-k, seq+k]], clipped to
    the journal — the ±K window shown around a mismatch. *)

(** {1 Replay verification} *)

type mismatch = {
  mm_seq : int;
  mm_field : string;
      (** ["virtual_time"] | ["label"] | ["causal_parent"] |
          ["rng_draws"] | ["extra_dispatch"] (live run outran the
          journal) | ["missing_dispatch"] (journal outran the run). *)
  mm_expected : dispatch option;  (** From the journal; [None] on extra. *)
  mm_actual : dispatch option;  (** From the live run; [None] on missing. *)
}

type verify_outcome = {
  vo_checked : int;  (** Dispatches that matched. *)
  vo_total : int;  (** Dispatches in the journal. *)
  vo_mismatch : mismatch option;  (** First divergence, if any. *)
}

val verify_against : loaded -> unit
(** Arm verification: each subsequent {!end_dispatch} compares the live
    dispatch to the journal's record at the same seq. Comparison stops
    at the first mismatch; the run itself is never interrupted. *)

val verify_finish : unit -> verify_outcome
(** Disarm and report. A clean run that fired fewer dispatches than the
    journal yields a ["missing_dispatch"] mismatch.
    @raise Invalid_argument if verification is not armed. *)

(** {1 Crash black box} *)

val set_ring_size : int -> unit
(** Replace the ring (default 512 slots); clears its contents. *)

val ring_size : unit -> int
(** The current ring capacity. *)

val blackbox : unit -> dispatch list
(** The last [min ring-size total] completed dispatches, oldest
    first. *)

val in_flight : unit -> dispatch option
(** The dispatch currently executing, with its RNG-draw count so far —
    on a trap, this is the record of the faulting handler. *)

val blackbox_json : unit -> Json.t
(** [{"schema": "netrepro-blackbox/1", "ring": [...], "in_flight":
    ...}] — what the supervisor embeds in its dump. *)
