(** Cross-layer tracing spans on the virtual clock.

    A span collector records begin/end intervals (and point events)
    against {!Time}, nestable per track, and exports them as Chrome
    [trace_event] JSON for chrome://tracing or Perfetto. The CLI wires
    the {!default} collector to [netrepro ... --trace-json FILE].

    Like {!Metrics}, collection is off by default and a
    disabled collector costs one branch per call — {!start} returns a
    preallocated dummy span, so the measurement loops pay nothing. *)

type t
(** A collector. *)

type span
(** An open span; finish it with {!finish}. Spans from a disabled
    collector are inert. *)

type args = (string * string) list

type completed = {
  name : string;
  cat : string;
  tid : int;
  begin_ns : float;
  dur_ns : float;
  depth : int;  (** Nesting level within the track at start time. *)
  args : args;
}

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** Disabled by default; at most [capacity] (default 200k) events are
    kept, later ones are dropped. *)

val default : t
(** Process-wide collector the simulator layers emit into. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val clear : t -> unit

val track : t -> string -> int
(** Allocate a track (a Chrome "thread") with a display name; pass the
    returned id as [tid] so concurrent components get separate swim
    lanes. Track 0 is the unnamed default. *)

val start : t -> at:Time.t -> ?cat:string -> ?tid:int -> ?args:args -> string -> span
val finish : t -> at:Time.t -> span -> unit
(** Spans on one track must finish in LIFO order for the recorded
    nesting depths to be meaningful. Unfinished spans are not
    exported. *)

val instant : t -> at:Time.t -> ?cat:string -> ?tid:int -> ?args:args -> string -> unit
(** A zero-duration point event. *)

val completed : t -> completed list
(** Finished spans and instants, ordered by begin time. *)

val to_chrome_trace : t -> Json.t
(** [{"traceEvents": [...]}] — "X" complete events, "i" instants, and
    "M" thread-name metadata, timestamps in microseconds. *)

val to_chrome_json : t -> string
