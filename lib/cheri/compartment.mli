(** Compartment contexts: the DDC/PCC pair.

    In hybrid-mode CHERI every legacy (integer-pointer) memory access is
    implicitly checked against the Default Data Capability, and every
    instruction fetch against the Program Counter Capability. A
    compartment is exactly such a pair (its identity is the {!Capvm}
    cVM's); the Intravisor installs a cVM's pair before jumping into
    it, and any access outside the DDC raises the out-of-bounds
    exception of the paper's Fig. 3. *)

type t

val make : ddc:Capability.t -> pcc:Capability.t -> t

(** {1 Hybrid-mode accesses}

    These model compiled legacy code touching memory through integer
    pointers: the check is against this compartment's DDC. *)

val load_bytes : t -> Tagged_memory.t -> addr:int -> len:int -> bytes
val store_bytes : t -> Tagged_memory.t -> addr:int -> bytes -> unit

val can_access : t -> addr:int -> len:int -> write:bool -> bool
(** Non-raising predicate. *)

val check_fetch : t -> addr:int -> unit
(** Instruction fetch at [addr] against the PCC. *)
