(* Checked-in report goldens under test/golden/ (copied next to the test
   binary by the test stanza's deps). *)

let read name =
  In_channel.with_open_bin (Filename.concat "golden" name)
    In_channel.input_all

let check name actual =
  Alcotest.(check string) ("matches golden/" ^ name) (read name) actual
