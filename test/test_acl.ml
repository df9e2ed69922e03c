(* Currency protection: ownership, grants, and guarded funding operations
   (paper §4.7's access-control proposal). *)

module F = Core.Funding
module Acl = Core.Acl

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected denial: %s" m

let denied name = function
  | Ok _ -> Alcotest.failf "%s: expected denial" name
  | Error m -> m

let setup () =
  let sys = F.create_system () in
  let acl = Acl.create sys in
  let alice = ok (Acl.make_currency acl ~as_:"alice" ~name:"alice") in
  (sys, acl, alice)

let test_ownership () =
  let _sys, acl, alice = setup () in
  checks "creator owns" "alice" (Acl.owner acl alice);
  checks "base owned by root" "root" (Acl.owner acl (F.base (Acl.system acl)));
  checkb "owner holds every perm" true
    (Acl.allowed acl "alice" alice Issue
    && Acl.allowed acl "alice" alice Fund
    && Acl.allowed acl "alice" alice Manage);
  checkb "stranger holds none" false (Acl.allowed acl "mallory" alice Issue)

let test_issue_guard () =
  let sys, acl, alice = setup () in
  (* the paper's inflation control: only permitted principals may create
     tickets in a currency *)
  let t = ok (Acl.issue acl ~as_:"alice" ~currency:alice ~amount:100) in
  checkb "ticket created" true (F.amount sys t = 100);
  let m = denied "mallory issue" (Acl.issue acl ~as_:"mallory" ~currency:alice ~amount:1_000_000) in
  checkb "denial names the perm" true
    (Core.Corpus.count_substring ~haystack:m ~needle:"issue" > 0);
  (* grant and retry *)
  ok (Acl.grant acl ~as_:"alice" alice "bob" Issue);
  let _t2 = ok (Acl.issue acl ~as_:"bob" ~currency:alice ~amount:10) in
  ok (Acl.revoke_perm acl ~as_:"alice" alice "bob" Issue);
  ignore (denied "revoked" (Acl.issue acl ~as_:"bob" ~currency:alice ~amount:10))

let test_fund_guard () =
  let sys, acl, alice = setup () in
  let bob = ok (Acl.make_currency acl ~as_:"bob" ~name:"bob") in
  let t = ok (Acl.issue acl ~as_:"alice" ~currency:alice ~amount:50) in
  (* alice may not push funding into bob's currency without Fund *)
  ignore (denied "no fund perm" (Acl.fund acl ~as_:"alice" ~ticket:t ~currency:bob));
  ok (Acl.grant acl ~as_:"bob" bob "alice" Fund);
  ok (Acl.fund acl ~as_:"alice" ~ticket:t ~currency:bob);
  checkb "edge exists" true (List.length (F.backing_tickets sys bob) = 1);
  (* and mallory may not detach it *)
  ignore (denied "no unfund perm" (Acl.unfund acl ~as_:"mallory" t));
  ok (Acl.unfund acl ~as_:"alice" t)

let test_set_amount_and_destroy_guard () =
  let sys, acl, alice = setup () in
  let t = ok (Acl.issue acl ~as_:"alice" ~currency:alice ~amount:5) in
  ignore (denied "inflate denied" (Acl.set_amount acl ~as_:"mallory" t 500));
  ok (Acl.set_amount acl ~as_:"alice" t 500);
  checkb "amount changed" true (F.amount sys t = 500);
  ignore (denied "destroy denied" (Acl.destroy_ticket acl ~as_:"mallory" t));
  ok (Acl.destroy_ticket acl ~as_:"alice" t)

let test_manage_guard () =
  let _sys, acl, alice = setup () in
  ignore (denied "chown denied" (Acl.chown acl ~as_:"mallory" alice "mallory"));
  ok (Acl.chown acl ~as_:"alice" alice "carol");
  checks "new owner" "carol" (Acl.owner acl alice);
  checkb "old owner lost rights" false (Acl.allowed acl "alice" alice Issue);
  ignore (denied "grant by non-manager" (Acl.grant acl ~as_:"alice" alice "alice" Issue));
  (* removal requires manage and an empty currency *)
  ignore (denied "remove denied" (Acl.remove_currency acl ~as_:"alice" alice));
  ok (Acl.remove_currency acl ~as_:"carol" alice);
  checkb "gone" true (F.find_currency (Acl.system acl) "alice" = None)

let test_grants_listing () =
  let _sys, acl, alice = setup () in
  ok (Acl.grant acl ~as_:"alice" alice "bob" Issue);
  ok (Acl.grant acl ~as_:"alice" alice "carol" Fund);
  let gs = Acl.grants acl alice in
  checkb "two grants" true (List.length gs = 2);
  checkb "bob listed" true (List.mem ("bob", Acl.Issue) gs);
  (* duplicate grants collapse *)
  ok (Acl.grant acl ~as_:"alice" alice "bob" Issue);
  checkb "no duplicate" true (List.length (Acl.grants acl alice) = 2)

let test_duplicate_currency () =
  let _sys, acl, _alice = setup () in
  match Acl.make_currency acl ~as_:"eve" ~name:"alice" with
  | Ok _ -> Alcotest.fail "duplicate accepted"
  | Error m ->
      checkb "explains" true (Core.Corpus.count_substring ~haystack:m ~needle:"exists" > 0)

let () =
  Alcotest.run "acl"
    [
      ( "protection",
        [
          Alcotest.test_case "ownership basics" `Quick test_ownership;
          Alcotest.test_case "issue (inflation) guard" `Quick test_issue_guard;
          Alcotest.test_case "fund guard" `Quick test_fund_guard;
          Alcotest.test_case "set_amount/destroy guard" `Quick
            test_set_amount_and_destroy_guard;
          Alcotest.test_case "manage guard & chown" `Quick test_manage_guard;
          Alcotest.test_case "grants listing" `Quick test_grants_listing;
          Alcotest.test_case "duplicate currency" `Quick test_duplicate_currency;
        ] );
    ]
