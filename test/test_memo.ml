(* The exactly-once memo every cache in the toolchain is built on: the
   one failure policy (waiters re-raise, nothing is cached), FIFO
   eviction over filled entries, and insertion of values computed
   elsewhere.  Single fill under concurrency is tested from pool workers
   in test_pool.ml. *)

module Memo = Bisa_base.Memo

exception Wrong_computer

(* Waiters already blocked on a failing computation get its exception;
   none of them computes in its place. *)
let test_waiters_reraise () =
  let m = Memo.create () in
  let arrived = Atomic.make 0 in
  let waiters = ref [] in
  (match
     Memo.find_or_compute m "k" (fun () ->
         waiters :=
           List.init 3 (fun _ ->
               Domain.spawn (fun () ->
                   Atomic.incr arrived;
                   match Memo.find_or_compute m "k" (fun () -> raise Wrong_computer) with
                   | _ -> `Value
                   | exception Failure msg -> `Failure msg
                   | exception Wrong_computer -> `Computed));
         while Atomic.get arrived < 3 do
           Unix.sleepf 0.001
         done;
         (* Let the waiters reach the busy entry and block on it. *)
         Unix.sleepf 0.1;
         failwith "boom")
   with
  | _ -> Alcotest.fail "the failing computation returned"
  | exception Failure msg -> Alcotest.(check string) "computer re-raises" "boom" msg);
  List.iter
    (fun d ->
      match Domain.join d with
      | `Failure msg ->
        Alcotest.(check string) "waiter re-raises the same exception" "boom" msg
      | `Value -> Alcotest.fail "a waiter got a value"
      | `Computed -> Alcotest.fail "a waiter recomputed")
    !waiters

(* A failure is never cached: the key is gone, and the next request
   recomputes. *)
let test_failure_recomputes () =
  let m = Memo.create () in
  (match Memo.find_or_compute m "k" (fun () -> failwith "transient") with
  | _ -> Alcotest.fail "did not raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "failed key removed" 0 (Memo.length m);
  Alcotest.(check (option int)) "nothing to find" None (Memo.find m "k");
  let ran = ref false in
  let v =
    Memo.find_or_compute m "k" (fun () ->
        ran := true;
        42)
  in
  Alcotest.(check bool) "later request recomputes" true !ran;
  Alcotest.(check int) "and its value is kept" 42 v;
  Alcotest.(check (option int)) "filled" (Some 42) (Memo.find m "k")

(* [cap] evicts the oldest filled entry, never a busy one.  The busy
   entry is held open by running the other operations from inside its
   own computation, which runs outside the table lock. *)
let test_cap_evicts_oldest_filled () =
  let m = Memo.create ~cap:2 () in
  ignore (Memo.find_or_compute m "a" (fun () -> 1));
  ignore (Memo.find_or_compute m "b" (fun () -> 2));
  let c =
    Memo.find_or_compute m "c" (fun () ->
        Alcotest.(check (option int)) "busy entry reads as absent" None (Memo.find m "c");
        Alcotest.(check bool) "insert d" true (Memo.insert m "d" 4);
        Alcotest.(check (option int)) "d evicted the oldest, a" None (Memo.find m "a");
        Alcotest.(check (option int)) "b kept" (Some 2) (Memo.find m "b");
        Alcotest.(check bool) "insert e" true (Memo.insert m "e" 5);
        Alcotest.(check (option int)) "e evicted b" None (Memo.find m "b");
        Alcotest.(check int) "busy c is kept beside two filled entries" 3 (Memo.length m);
        3)
  in
  Alcotest.(check int) "c computed" 3 c;
  Alcotest.(check (option int)) "filling c evicted d" None (Memo.find m "d");
  Alcotest.(check (option int)) "e kept" (Some 5) (Memo.find m "e");
  Alcotest.(check (option int)) "c kept" (Some 3) (Memo.find m "c");
  Alcotest.(check int) "at the cap" 2 (Memo.length m)

(* Inserting a present key does nothing, whether the key is filled or
   still being computed. *)
let test_insert_present () =
  let m = Memo.create () in
  Alcotest.(check bool) "first insert" true (Memo.insert m "k" 1);
  Alcotest.(check bool) "second insert refused" false (Memo.insert m "k" 2);
  Alcotest.(check (option int)) "first value kept" (Some 1) (Memo.find m "k");
  Alcotest.(check int) "a filled key is not recomputed" 1
    (Memo.find_or_compute m "k" (fun () -> raise Wrong_computer));
  let v =
    Memo.find_or_compute m "j" (fun () ->
        Alcotest.(check bool) "insert on a busy key refused" false (Memo.insert m "j" 9);
        7)
  in
  Alcotest.(check int) "the computation's value wins" 7 v;
  Alcotest.(check (option int)) "and stays" (Some 7) (Memo.find m "j")

let suite =
  [
    Alcotest.test_case "waiters re-raise a failing computation" `Quick test_waiters_reraise;
    Alcotest.test_case "a failure is not cached" `Quick test_failure_recomputes;
    Alcotest.test_case "cap evicts the oldest filled entry" `Quick
      test_cap_evicts_oldest_filled;
    Alcotest.test_case "insert on a present key does nothing" `Quick test_insert_present;
  ]
