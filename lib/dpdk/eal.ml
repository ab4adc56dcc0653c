type t = {
  mem : Cheri.Tagged_memory.t;
  alloc : Cheri.Alloc.t;
  zones : (string, Cheri.Capability.t) Hashtbl.t;
}

let create mem ~region =
  {
    mem;
    alloc = Cheri.Alloc.create ~label:"memzone" ~region ();
    zones = Hashtbl.create 16;
  }

let mem t = t.mem

let memzone_reserve t ~name ~size =
  if Hashtbl.mem t.zones name then
    invalid_arg ("Eal.memzone_reserve: duplicate zone " ^ name);
  let cap = Cheri.Alloc.malloc t.alloc size in
  (* The EAL maps pre-faulted hugepages: the zone's pages exist before
     the first packet touches them. *)
  Cheri.Tagged_memory.populate t.mem ~addr:(Cheri.Capability.base cap) ~len:size;
  Hashtbl.replace t.zones name cap;
  cap

let memzone_lookup t ~name = Hashtbl.find_opt t.zones name
