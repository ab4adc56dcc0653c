(* The CRC-32 kernels are C (fcs_stubs.c): a carry-less-multiply fold
   where the CPU has PCLMULQDQ, slicing-by-8 tables elsewhere and for
   the short tail. The stub reads exactly [Bytes.length frame] bytes,
   so there is no window to check here. *)

external init : unit -> unit = "nic_fcs_init"

let () = init ()

external compute : bytes -> (int[@untagged])
  = "nic_fcs_compute_byte" "nic_fcs_compute"
[@@noalloc]
