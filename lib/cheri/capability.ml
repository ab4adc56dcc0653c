type t = {
  tag : bool;
  base : int;
  length : int;
  cursor : int;
  perms : Perms.t;
  sealed : Otype.t option;
}

(* Compressed capabilities can represent cursors only within a window
   around the bounds; moving further clears the tag. 4 KiB on each side
   is a simple stand-in for the CHERI Concentrate window. *)
let representable_slack = 4096

let root ~base ~length ~perms =
  if base < 0 || length < 0 then invalid_arg "Capability.root: negative bounds";
  { tag = true; base; length; cursor = base; perms; sealed = None }

let null =
  { tag = false; base = 0; length = 0; cursor = 0; perms = Perms.none; sealed = None }

let base c = c.base
let length c = c.length
let cursor c = c.cursor
let limit c = c.base + c.length
let perms c = c.perms
let is_tagged c = c.tag
let is_sealed c = Option.is_some c.sealed
let otype c = c.sealed

let require_exact c op =
  if not c.tag then
    Fault.raise_fault Tag_violation ~address:c.cursor
      ~detail:(op ^ " via untagged capability");
  if is_sealed c then
    Fault.raise_fault Seal_violation ~address:c.cursor
      ~detail:(op ^ " via sealed capability")

let set_bounds c ~base ~length =
  require_exact c "set_bounds";
  if length < 0 then
    Fault.raise_fault Monotonicity_violation ~address:base
      ~detail:"set_bounds with negative length";
  (* [length > limit c - base], not [base + length > limit c]: a length
     near [max_int] would wrap the sum negative and pass. *)
  if base < c.base || base > limit c || length > limit c - base then
    Fault.raise_fault Monotonicity_violation ~address:base
      ~detail:
        (Printf.sprintf "set_bounds [0x%x,+0x%x) escapes [0x%x,+0x%x)" base
           length c.base c.length);
  { c with base; length; cursor = base }

let and_perms c p =
  require_exact c "and_perms";
  { c with perms = Perms.intersect c.perms p }

let set_cursor c addr =
  require_exact c "set_cursor";
  if addr < c.base - representable_slack || addr > limit c + representable_slack
  then { c with cursor = addr; tag = false }
  else { c with cursor = addr }

let incr_cursor c delta = set_cursor c (c.cursor + delta)

let derive c ~offset ~length ~perms =
  let narrowed = set_bounds c ~base:(c.base + offset) ~length in
  and_perms narrowed perms

let seal ~sealer c =
  require_exact c "seal";
  if not sealer.tag then
    Fault.raise_fault Tag_violation ~address:sealer.cursor
      ~detail:"seal via untagged sealer";
  if is_sealed sealer then
    Fault.raise_fault Seal_violation ~address:sealer.cursor
      ~detail:"seal via sealed sealer";
  if not sealer.perms.Perms.seal then
    Fault.raise_fault Permission_violation ~address:sealer.cursor
      ~detail:"sealer lacks seal permission";
  if sealer.cursor < sealer.base || sealer.cursor >= limit sealer then
    Fault.raise_fault Out_of_bounds ~address:sealer.cursor
      ~detail:"sealer cursor outside its otype space";
  { c with sealed = Some (Otype.of_int_exn sealer.cursor) }

let unseal ~unsealer c =
  if not c.tag then
    Fault.raise_fault Tag_violation ~address:c.cursor
      ~detail:"unseal of untagged capability";
  match c.sealed with
  | None ->
    Fault.raise_fault Unseal_violation ~address:c.cursor
      ~detail:"unseal of an unsealed capability"
  | Some ot ->
    if not unsealer.tag then
      Fault.raise_fault Tag_violation ~address:unsealer.cursor
        ~detail:"unseal via untagged unsealer";
    if not unsealer.perms.Perms.unseal then
      Fault.raise_fault Permission_violation ~address:unsealer.cursor
        ~detail:"unsealer lacks unseal permission";
    if unsealer.cursor <> Otype.to_int ot then
      Fault.raise_fault Unseal_violation ~address:unsealer.cursor
        ~detail:
          (Printf.sprintf "unsealer otype %d does not match %d" unsealer.cursor
             (Otype.to_int ot));
    { c with sealed = None }

type access = Load | Store | Execute | Load_cap | Store_cap

let access_to_string = function
  | Load -> "load"
  | Store -> "store"
  | Execute -> "execute"
  | Load_cap -> "load_cap"
  | Store_cap -> "store_cap"

let has_perm p = function
  | Load -> p.Perms.load
  | Store -> p.Perms.store
  | Execute -> p.Perms.execute
  | Load_cap -> p.Perms.load_cap
  | Store_cap -> p.Perms.store_cap

(* Overflow-free: [addr + len] is never formed. *)
let in_bounds c ~addr ~len =
  len >= 0 && addr >= c.base && addr <= limit c && len <= limit c - addr

let check_access c access ~addr ~len =
  if not c.tag then
    Fault.raise_fault Tag_violation ~address:addr
      ~detail:(access_to_string access ^ " via untagged capability");
  if is_sealed c then
    Fault.raise_fault Seal_violation ~address:addr
      ~detail:(access_to_string access ^ " via sealed capability");
  if not (has_perm c.perms access) then
    Fault.raise_fault Permission_violation ~address:addr
      ~detail:
        (Printf.sprintf "%s not permitted by %s" (access_to_string access)
           (Format.asprintf "%a" Perms.pp c.perms));
  if not (in_bounds c ~addr ~len) then
    Fault.raise_fault Out_of_bounds ~address:addr
      ~detail:
        (Printf.sprintf "%s of [0x%x,+0x%x) outside [0x%x,+0x%x)"
           (access_to_string access) addr len c.base c.length)

let check_deref c access ~len = check_access c access ~addr:c.cursor ~len

let equal a b =
  a.tag = b.tag && a.base = b.base && a.length = b.length && a.cursor = b.cursor
  && Perms.equal a.perms b.perms
  && Option.equal Otype.equal a.sealed b.sealed

let pp fmt c =
  Format.fprintf fmt "cap{%s base=0x%x len=0x%x cur=0x%x %a%s}"
    (if c.tag then "v" else "!")
    c.base c.length c.cursor Perms.pp c.perms
    (match c.sealed with
    | None -> ""
    | Some ot -> Format.asprintf " sealed:%a" Otype.pp ot)
