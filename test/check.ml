(* Shared Alcotest shorthands; a test file opens this module. *)
let tc name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.check Alcotest.bool msg true
let check_int msg = Alcotest.check Alcotest.int msg
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let ok' = ok
