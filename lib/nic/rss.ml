(* Receive-side scaling's steering function: a Toeplitz hash over the
   5-tuple picks a 128-entry indirection-table (RETA) slot, and the
   slot names an RX queue. It is a pure function of the frame bytes
   and the key. The modelled ports run one queue, so only the red-team
   corpus calls it, to aim frames. *)

(* igb indirection-table entries. *)
let reta_size = 128

(* The Microsoft reference RSS key; any 40-byte key works, this one has
   well-studied dispersion and makes hash values comparable against
   real-NIC captures. *)
let key =
  Bytes.of_string
    "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
     \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
     \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

(* Toeplitz: the hash is the XOR of a sliding 32-bit window of the key
   at every set input bit, MSB first. [input] is the packed tuple from
   [five_tuple] — 12 bytes (src ip, dst ip, src port, dst port) for
   TCP/UDP or 8 bytes (src ip, dst ip) otherwise — so the key's 40
   bytes cover 32 + 96 window positions with room to spare. *)
let hash_input input =
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
   beyond the tuple scratch. TCP/UDP
   frames yield the standard 12-byte RSS TCP/IPv4 input, everything
   else the 8-byte IPv4 2-tuple — matching hardware hash types, so
   hash values line up with the Microsoft verification vectors and
   real-NIC captures. A fragmented datagram (fragment offset or MF
   set) also falls back to the 2-tuple, igb-style: non-first fragments
   carry no L4 header, and hashing payload bytes as ports would scatter
   one flow's fragments across queues. Returns None for non-IPv4
   frames (ARP, runts), which hardware delivers un-hashed to the
   default queue. *)
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

(* Attacker's-eye view of the steering function: the full hash and the
   queue a [queues]-queue port at its reset RETA (round-robin, entry
   [i] -> queue [i mod queues]) would land it on. Because Toeplitz +
   RETA is a pure function of the frame bytes, an off-path attacker who
   knows (or guesses) the key can aim flows at a victim's queue. *)
let probe ~queues frame =
  match five_tuple frame with
  | None -> None
  | Some tuple ->
    let h = hash_input tuple in
    Some (h, (h land (reta_size - 1)) mod queues)
