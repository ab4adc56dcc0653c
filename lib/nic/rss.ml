(* Receive-side scaling: a Toeplitz hash over the 5-tuple steers each
   IPv4 frame through a 128-entry indirection table (RETA) to an RX
   queue. Classification is a pure function of the frame bytes and the
   (key, reta) configuration: the same flow always lands on the same
   queue, in arrival order — the determinism the per-queue stack loops
   rely on. *)

let reta_size = 128

type t = {
  key : bytes;
  reta : int array;
  queues : int;
}

(* The Microsoft reference RSS key; any 40-byte key works, this one has
   well-studied dispersion and makes hash values comparable against
   real-NIC captures. *)
let default_key () =
  Bytes.of_string
    "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
     \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
     \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

let create ?key ~queues () =
  if queues < 1 then invalid_arg "Rss.create: queues must be >= 1";
  let key = match key with Some k -> Bytes.copy k | None -> default_key () in
  if Bytes.length key < 40 then invalid_arg "Rss.create: key must be 40 bytes";
  {
    key;
    (* Default RETA: round-robin over queues, the igb reset value. *)
    reta = Array.init reta_size (fun i -> i mod queues);
    queues;
  }

let queues t = t.queues

let set_reta t ~entry ~queue =
  if entry < 0 || entry >= reta_size then invalid_arg "Rss.set_reta: entry";
  if queue < 0 || queue >= t.queues then invalid_arg "Rss.set_reta: queue";
  t.reta.(entry) <- queue

(* Toeplitz: the hash is the XOR of a sliding 32-bit window of the key
   at every set input bit, MSB first. [input] is the packed tuple from
   [five_tuple] — 12 bytes (src ip, dst ip, src port, dst port) for
   TCP/UDP or 8 bytes (src ip, dst ip) otherwise — so the key's 40
   bytes cover 32 + 96 window positions with room to spare. *)
let hash_input t input =
  let key = t.key in
  let window =
    ref
      ((Char.code (Bytes.get key 0) lsl 24)
      lor (Char.code (Bytes.get key 1) lsl 16)
      lor (Char.code (Bytes.get key 2) lsl 8)
      lor Char.code (Bytes.get key 3))
  in
  let keybit = ref 32 in
  let result = ref 0 in
  for i = 0 to Bytes.length input - 1 do
    let b = Char.code (Bytes.get input i) in
    for bit = 7 downto 0 do
      if b land (1 lsl bit) <> 0 then result := !result lxor !window;
      let next =
        let byte = !keybit lsr 3 and off = 7 - (!keybit land 7) in
        if byte < Bytes.length key then
          (Char.code (Bytes.get key byte) lsr off) land 1
        else 0
      in
      window := ((!window lsl 1) land 0xFFFFFFFF) lor next;
      incr keybit
    done
  done;
  !result

(* Pack the hash tuple straight off an Ethernet frame: no allocation
   beyond the tuple scratch (only reached when queues > 1). TCP/UDP
   frames yield the standard 12-byte RSS TCP/IPv4 input, everything
   else the 8-byte IPv4 2-tuple — matching hardware hash types, so
   hash values line up with the Microsoft verification vectors and
   real-NIC captures. A fragmented datagram (fragment offset or MF
   set) also falls back to the 2-tuple, igb-style: non-first fragments
   carry no L4 header, and hashing payload bytes as ports would scatter
   one flow's fragments across queues. Returns None for non-IPv4
   frames (ARP, runts) — those fall to queue 0, like hardware
   delivering un-hashable traffic to the default queue. *)
let five_tuple frame =
  let len = Bytes.length frame in
  if
    len >= 34
    && Char.code (Bytes.get frame 12) = 0x08
    && Char.code (Bytes.get frame 13) = 0x00
  then begin
    let ihl = Char.code (Bytes.get frame 14) land 0x0f in
    let l4 = 14 + (ihl * 4) in
    let proto = Char.code (Bytes.get frame 23) in
    let fragmented =
      (Char.code (Bytes.get frame 20) land 0x3f) lor Char.code (Bytes.get frame 21)
      <> 0
    in
    if (proto = 6 || proto = 17) && (not fragmented) && len >= l4 + 4 then begin
      let tuple = Bytes.create 12 in
      Bytes.blit frame 26 tuple 0 8;
      (* src + dst ip *)
      Bytes.blit frame l4 tuple 8 4;
      (* src + dst port *)
      Some tuple
    end
    else begin
      let tuple = Bytes.create 8 in
      Bytes.blit frame 26 tuple 0 8;
      Some tuple
    end
  end
  else None

let classify t frame =
  if t.queues = 1 then 0
  else
    match five_tuple frame with
    | None -> 0
    | Some tuple -> t.reta.(hash_input t tuple land (reta_size - 1))

(* Attacker's-eye view of the steering function: the full hash and the
   queue it would land on, regardless of [t.queues]. Because Toeplitz +
   RETA is a pure function of the frame bytes, an off-path attacker who
   knows (or guesses) the key can aim flows at a victim's queue; the
   red-team corpus uses this to prove that a steered hostile flow still
   ends in a typed verdict inside the victim's compartment. *)
let probe t frame =
  match five_tuple frame with
  | None -> None
  | Some tuple ->
    let h = hash_input t tuple in
    Some (h, t.reta.(h land (reta_size - 1)))
