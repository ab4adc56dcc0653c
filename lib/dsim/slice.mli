(** A borrowed view of a byte buffer: backing [bytes] + window.

    The zero-copy packet path threads slices between layers instead of
    materializing a fresh [Bytes.t] at every boundary: the mbuf borrow
    performs one capability check for the whole frame, and every parser
    then reads the frame in place through a slice.

    A slice never escapes its window: all accessors bounds-check against
    [len] and report violations through the creator-supplied [oob]
    handler. {!Cheri.Tagged_memory.borrow} installs a handler that
    raises the same [Cheri.Fault.Capability_fault] an individual
    capability-checked access would have raised, so narrowing from
    per-access checks to one check per frame does not weaken the
    protection story — an out-of-slice access still traps. *)

type oob = { raise_oob : 'a. addr:int -> len:int -> detail:string -> 'a }
(** Out-of-window handler; [addr] is the absolute address of the
    offending access (window origin + offset). *)

type t

val make : ?abs:int -> ?oob:oob -> bytes -> off:int -> len:int -> t
(** Window [\[off, off+len)] of [base]. [abs] is the absolute address
    the window starts at in the simulated address space (diagnostics
    only; defaults to 0). [oob] defaults to raising [Invalid_argument],
    the behaviour of plain slices not backed by a capability borrow.
    @raise Invalid_argument when the window does not fit in [base]. *)

val of_bytes : bytes -> t
(** The whole buffer as a slice. *)

val length : t -> int

val base : t -> bytes
(** The backing buffer — with {!base_off}, for handing the raw window to
    [~off ~len]-style parsers without copying. Accesses made directly
    through the backing buffer bypass the slice's bounds discipline;
    keep them confined to [\[base_off, base_off+length)]. *)

val base_off : t -> int
val absolute : t -> int

val check : t -> off:int -> len:int -> unit
(** Assert [\[off, off+len)] lies inside the window, invoking the [oob]
    handler otherwise. Callers about to hand {!base}/{!base_off} to an
    in-place parser use this as the single bounds gate for the range the
    parser will touch. *)

val sub : t -> off:int -> len:int -> t
(** Narrowed view sharing the backing buffer (no copy). *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16_be : t -> int -> int
val set_u16_be : t -> int -> int -> unit
val get_u32_be : t -> int -> int

val to_bytes : t -> bytes
(** Materialize a copy (the escape hatch for data that outlives the
    borrow, e.g. packets parked awaiting ARP resolution). *)

val blit_from : t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
