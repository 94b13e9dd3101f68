open Openivm_engine

let suite =
  [ Util.tc "push returns consecutive slots" (fun () ->
        let v = Vec.create ~dummy:0 () in
        Alcotest.(check int) "slot0" 0 (Vec.push v 10);
        Alcotest.(check int) "slot1" 1 (Vec.push v 20);
        Alcotest.(check int) "len" 2 (Vec.length v));
    Util.tc "get/set roundtrip" (fun () ->
        let v = Vec.create ~dummy:0 () in
        ignore (Vec.push v 1);
        ignore (Vec.push v 2);
        Vec.set v 0 99;
        Alcotest.(check int) "set" 99 (Vec.get v 0);
        Alcotest.(check int) "untouched" 2 (Vec.get v 1));
    Util.tc "bounds are checked" (fun () ->
        let v = Vec.create ~dummy:0 () in
        ignore (Vec.push v 1);
        (match Vec.get v 1 with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "get out of bounds");
        match Vec.set v (-1) 0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "set out of bounds");
    Util.tc "growth preserves contents" (fun () ->
        let v = Vec.create ~dummy:(-1) () in
        for i = 0 to 999 do
          ignore (Vec.push v i)
        done;
        Alcotest.(check int) "len" 1000 (Vec.length v);
        let ok = ref true in
        Vec.iteri (fun i x -> if i <> x then ok := false) v;
        Alcotest.(check bool) "contents" true !ok);
    Util.tc "clear resets and allows reuse" (fun () ->
        let v = Vec.create ~dummy:0 () in
        ignore (Vec.push v 1);
        Vec.clear v;
        Alcotest.(check int) "empty" 0 (Vec.length v);
        Alcotest.(check int) "new slot" 0 (Vec.push v 5));
    Util.tc "push into a zero-capacity vec terminates and grows" (fun () ->
        (* regression: ensure_capacity looped forever doubling 0 *)
        let v = Vec.create ~capacity:0 ~dummy:(-1) () in
        for i = 0 to 99 do
          ignore (Vec.push v i)
        done;
        Alcotest.(check int) "len" 100 (Vec.length v);
        Alcotest.(check int) "last" 99 (Vec.get v 99));
    Util.tc "fold and to_list agree" (fun () ->
        let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
        Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Vec.to_list v);
        Alcotest.(check int) "fold" 6 (Vec.fold ( + ) 0 v));
  ]
