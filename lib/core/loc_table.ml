type row = { library : string; cheri_loc : int; total_loc : int; pct : float }

let count_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n

let count_files root paths =
  List.fold_left
    (fun acc p ->
      match acc with
      | None -> None
      | Some total -> (
        match count_file (Filename.concat root p) with
        | None -> None
        | Some n -> Some (total + n)))
    (Some 0) paths

let count_dir root dir =
  let path = Filename.concat root dir in
  match Sys.readdir path with
  | exception Sys_error _ -> None
  | entries ->
    Array.to_list entries
    |> List.filter (fun f ->
           List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c" ])
    |> List.map (fun f -> Filename.concat dir f)
    |> count_files root

let mk library cheri total =
  {
    library;
    cheri_loc = cheri;
    total_loc = total;
    pct = 100. *. float_of_int cheri /. float_of_int (max 1 total);
  }

let from_sources ~root =
  let ( let* ) o f = Option.bind o f in
  let* fstack_total = count_dir root "lib/netstack" in
  let* fstack_cheri =
    count_files root [ "lib/netstack/ff_api.ml"; "lib/netstack/ff_api.mli" ]
  in
  let* dpdk_total = count_dir root "lib/dpdk" in
  let* dpdk_cheri =
    count_files root [ "lib/dpdk/igb_uio.ml"; "lib/dpdk/igb_uio.mli" ]
  in
  Some
    [ mk "F-Stack (netstack)" fstack_cheri fstack_total;
      mk "DPDK" dpdk_cheri dpdk_total ]

(* Refreshed from `wc -l` at release time; used when the source tree is
   not present at runtime. *)
let recorded =
  [ mk "F-Stack (netstack)" 117 4574; mk "DPDK" 39 651 ]

let compute () =
  match from_sources ~root:"." with Some rows -> rows | None -> recorded

let pp fmt rows =
  Format.fprintf fmt "%-22s %10s %10s %8s@." "Library" "CHERI LoC" "total LoC"
    "share";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s %10d %10d %7.2f%%@." r.library r.cheri_loc
        r.total_loc r.pct)
    rows
