type t = { ddc : Capability.t; pcc : Capability.t }

let make ~ddc ~pcc = { ddc; pcc }

let load_bytes t mem ~addr ~len = Tagged_memory.load_bytes mem ~cap:t.ddc ~addr ~len
let store_bytes t mem ~addr b = Tagged_memory.store_bytes mem ~cap:t.ddc ~addr b

let can_access t ~addr ~len ~write =
  let open Capability in
  is_tagged t.ddc
  && (not (is_sealed t.ddc))
  && in_bounds t.ddc ~addr ~len
  && (if write then (perms t.ddc).Perms.store else (perms t.ddc).Perms.load)

let check_fetch t ~addr = Capability.check_access t.pcc Execute ~addr ~len:4
