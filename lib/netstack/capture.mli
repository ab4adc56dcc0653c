(** Packet capture (tcpdump-lite).

    Attach to a {!Stack} to record every frame the stack sends or
    receives, with one-line protocol summaries for debugging and for
    asserting on traffic in tests. Bounded; recording is O(1) and the
    decode work happens only when entries are rendered. *)

type direction = Rx | Tx

type entry = {
  at : Dsim.Time.t;
  dir : direction;
  frame : bytes;  (** The full frame as it crossed the device. *)
}

type t

val create : ?limit:int -> unit -> t
(** Keeps the first [limit] frames (default 4096); later ones are
    counted but not stored. *)

val record : t -> at:Dsim.Time.t -> direction -> bytes -> unit
val entries : t -> entry list
(** Chronological. *)

val count : t -> int
(** Total recorded calls, including frames beyond the storage limit. *)

val clear : t -> unit

val summarize : bytes -> string
(** One-line decode: ["IP 10.0.0.1.40000 > 10.0.0.2.5201: Flags [S], seq
    100, win 16384, length 0"], ["ARP, Request who-has 10.0.0.2 tell
    10.0.0.1"], etc. Never raises on malformed input. *)

val matching : t -> string -> entry list
(** Entries whose summary contains the substring. *)
