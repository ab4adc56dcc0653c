(** A MAVLink-style telemetry protocol (v1 framing).

    The paper motivates network-stack compartmentalization with drone
    autopilots: PX4 speaks MAVLink, and CVE-2024-38951 is a
    denial-of-service through unchecked buffer limits in exactly this
    parser layer. This module implements the framing (magic, length,
    sequence, system/component ids, message id, X.25 CRC) plus a few
    representative messages, and exposes both a safe parser and the
    CVE-shaped decode path whose payload copy is governed by the
    *caller's capability* — the difference between a trap and a
    takeover in {!Attack}-style demos. *)

type message =
  | Heartbeat of { vehicle_type : int; autopilot : int; base_mode : int; status : int }
  | Attitude of { time_ms : int; roll_cdeg : int; pitch_cdeg : int; yaw_cdeg : int }
  | Command of { command : int; param1 : int; param2 : int; confirmation : int }
  | Raw of { msgid : int; payload : bytes }  (** Anything else. *)

type frame = {
  seq : int;
  sysid : int;
  compid : int;
  message : message;
}

val crc_x25 : ?init:int -> bytes -> off:int -> len:int -> int
(** The MAVLink checksum (CRC-16/X.25 without final reflection
    conventions — matches {!encode}/{!decode}). *)

val encode : frame -> bytes
(** Wire bytes: [0xFE len seq sysid compid msgid payload crc_lo crc_hi]. *)

val decode : bytes -> (frame, string) result
(** Safe parser: validates magic, length against the actual buffer, and
    the CRC. *)

val decode_into :
  Cheri.Tagged_memory.t ->
  dst:Cheri.Capability.t ->
  bytes ->
  (frame * int, string) result
(** The CVE-2024-38951 shape: copy the *declared* payload length into
    the caller's buffer before validating it ("unchecked buffer
    limits"). With a properly bounded capability an oversized
    declaration raises {!Cheri.Fault.Capability_fault}; on a flat
    system the same code pattern would overrun [dst]. Returns the frame
    and the number of bytes copied. *)

val forge_oversized : declared_len:int -> bytes
(** An attack frame whose length field declares [declared_len] (may
    exceed both the actual payload and the 255-byte maximum consumers
    expect)
    — the malformed input of the CVE. *)

val pp : Format.formatter -> frame -> unit
