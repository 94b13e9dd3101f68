open Openivm_engine
open Openivm_dbsp

let row_of_int i : Row.t = [| Value.Int i |]

let zset_of (bindings : (int * int) list) : Zset.t =
  Zset.of_list (List.map (fun (x, w) -> (row_of_int x, w)) bindings)

let gen_zset =
  QCheck.Gen.map zset_of
    QCheck.Gen.(list_size (int_bound 30) (pair (int_bound 10) (int_range (-3) 3)))

let arb_zset =
  QCheck.make ~print:Zset.to_string gen_zset

let suite_unit =
  [ Util.tc "zero weights vanish" (fun () ->
        let z = zset_of [ (1, 2); (1, -2) ] in
        Alcotest.(check bool) "empty" true (Zset.is_empty z));
    Util.tc "weights accumulate" (fun () ->
        let z = zset_of [ (1, 2); (1, 3) ] in
        Alcotest.(check int) "weight" 5 (Zset.weight z (row_of_int 1)));
    Util.tc "distinct clamps to 1" (fun () ->
        let z = Zset.distinct (zset_of [ (1, 5); (2, -3); (3, 1) ]) in
        Alcotest.(check int) "w1" 1 (Zset.weight z (row_of_int 1));
        Alcotest.(check int) "w2" 0 (Zset.weight z (row_of_int 2));
        Alcotest.(check int) "w3" 1 (Zset.weight z (row_of_int 3)));
    Util.tc "map merges weights" (fun () ->
        let z = Zset.map (fun _ -> row_of_int 0) (zset_of [ (1, 2); (2, 3) ]) in
        Alcotest.(check int) "merged" 5 (Zset.weight z (row_of_int 0)));
    Util.tc "join multiplies weights" (fun () ->
        let a = zset_of [ (1, 2) ] and b = zset_of [ (1, 3) ] in
        let j =
          Zset.join ~left_key:(fun r -> r) ~right_key:(fun r -> r)
            ~output:(fun l _ -> l) a b
        in
        Alcotest.(check int) "product" 6 (Zset.weight j (row_of_int 1)));
    Util.tc "to_rows_exn expands and rejects negatives" (fun () ->
        let z = zset_of [ (7, 3) ] in
        Alcotest.(check int) "copies" 3 (List.length (Zset.to_rows_exn z));
        let neg = zset_of [ (7, -1) ] in
        match Zset.to_rows_exn neg with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected error");
    (* regression: minus/plus must not mutate their operands now that
       minus folds in one pass and plus copies the larger side *)
    Util.tc "minus and plus leave operands untouched" (fun () ->
        let a = zset_of [ (1, 2); (2, -1) ] in
        let b = zset_of [ (1, 1); (3, 4); (4, 1) ] in
        let a0 = Zset.copy a and b0 = Zset.copy b in
        ignore (Zset.minus a b);
        ignore (Zset.minus b a);
        ignore (Zset.plus a b);   (* b is larger: copied side swaps *)
        ignore (Zset.plus b a);
        Alcotest.(check bool) "a unchanged" true (Zset.equal a a0);
        Alcotest.(check bool) "b unchanged" true (Zset.equal b b0));
  ]

let qcheck =
  let open QCheck in
  [ Test.make ~count:300 ~name:"plus is commutative" (pair arb_zset arb_zset)
      (fun (a, b) -> Zset.equal (Zset.plus a b) (Zset.plus b a));
    Test.make ~count:300 ~name:"plus is associative"
      (triple arb_zset arb_zset arb_zset)
      (fun (a, b, c) ->
         Zset.equal (Zset.plus (Zset.plus a b) c) (Zset.plus a (Zset.plus b c)));
    Test.make ~count:300 ~name:"negate is an additive inverse" arb_zset
      (fun a -> Zset.is_empty (Zset.plus a (Zset.negate a)));
    Test.make ~count:300 ~name:"minus agrees with plus/negate"
      (pair arb_zset arb_zset)
      (fun (a, b) -> Zset.equal (Zset.minus a b) (Zset.plus a (Zset.negate b)));
    Test.make ~count:300 ~name:"distinct is idempotent" arb_zset
      (fun a -> Zset.equal (Zset.distinct a) (Zset.distinct (Zset.distinct a)));
    Test.make ~count:300 ~name:"map is linear" (pair arb_zset arb_zset)
      (fun (a, b) ->
         let f = Zset.map (fun r -> [| r.(0); r.(0) |]) in
         Zset.equal (f (Zset.plus a b)) (Zset.plus (f a) (f b)));
    Test.make ~count:300 ~name:"filter is linear" (pair arb_zset arb_zset)
      (fun (a, b) ->
         let p (r : Row.t) = match r.(0) with Value.Int i -> i mod 2 = 0 | _ -> false in
         Zset.equal
           (Zset.filter p (Zset.plus a b))
           (Zset.plus (Zset.filter p a) (Zset.filter p b)));
    Test.make ~count:200 ~name:"join is bilinear in the left argument"
      (triple arb_zset arb_zset arb_zset)
      (fun (a1, a2, b) ->
         let j x y =
           Zset.join ~left_key:(fun r -> r) ~right_key:(fun r -> r)
             ~output:Row.concat x y
         in
         Zset.equal (j (Zset.plus a1 a2) b) (Zset.plus (j a1 b) (j a2 b)));
    Test.make ~count:300 ~name:"positive/negative decompose" arb_zset
      (fun a ->
         Zset.equal a (Zset.minus (Zset.positive a) (Zset.negative a)));
    Test.make ~count:300 ~name:"accumulate = plus" (pair arb_zset arb_zset)
      (fun (a, b) ->
         let acc = Zset.copy a in
         Zset.accumulate ~into:acc b;
         Zset.equal acc (Zset.plus a b));
  ]

let suite = suite_unit @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck
