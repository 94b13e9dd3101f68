open Openivm_engine

let v_int i = Value.Int i
let v_str s = Value.Str s

let suite =
  [ Util.tc "compare: null sorts first" (fun () ->
        Alcotest.(check bool) "null < int" true (Value.compare Value.Null (v_int 0) < 0);
        Alcotest.(check bool) "null < str" true (Value.compare Value.Null (v_str "") < 0));
    Util.tc "compare: cross-type numerics" (fun () ->
        Alcotest.(check int) "1 = 1.0" 0 (Value.compare (v_int 1) (Value.Float 1.0));
        Alcotest.(check bool) "1 < 1.5" true (Value.compare (v_int 1) (Value.Float 1.5) < 0);
        Alcotest.(check bool) "2.5 > 2" true (Value.compare (Value.Float 2.5) (v_int 2) > 0));
    Util.tc "hash consistent with equal across numeric types" (fun () ->
        Alcotest.(check int) "hash 3 = hash 3.0" (Value.hash (v_int 3))
          (Value.hash (Value.Float 3.0)));
    Util.tc "date conversion roundtrip" (fun () ->
        List.iter
          (fun s ->
             match Value.date_of_string s with
             | Value.Date d -> Alcotest.(check string) s s (Value.date_to_string d)
             | _ -> Alcotest.fail "not a date")
          [ "1970-01-01"; "2024-06-09"; "2000-02-29"; "1999-12-31"; "1899-03-01" ]);
    Util.tc "date arithmetic anchors" (fun () ->
        (match Value.date_of_string "1970-01-01" with
         | Value.Date 0 -> ()
         | Value.Date d -> Alcotest.failf "epoch = %d" d
         | _ -> Alcotest.fail "not a date");
        match Value.date_of_string "1970-02-01" with
        | Value.Date 31 -> ()
        | _ -> Alcotest.fail "Jan has 31 days");
    Util.tc "invalid dates rejected" (fun () ->
        List.iter
          (fun s ->
             match Value.date_of_string s with
             | exception Error.Sql_error _ -> ()
             | _ -> Alcotest.failf "accepted %S" s)
          [ "2024-13-01"; "2024-00-10"; "nonsense"; "2024-1";
            (* past the month's end, leap years by the Gregorian rule *)
            "2020-02-30"; "2021-02-29"; "2021-04-31"; "1900-02-29" ];
        List.iter
          (fun s ->
             match Value.date_of_string s with
             | Value.Date d -> Alcotest.(check string) s s (Value.date_to_string d)
             | _ -> Alcotest.failf "rejected %S" s)
          [ "2020-02-29"; "2000-02-29" ];
        let db = Util.db_with [] in
        List.iter
          (fun sql ->
             match Database.query db sql with
             | exception Error.Sql_error _ -> ()
             | _ -> Alcotest.failf "accepted %S" sql)
          [ "SELECT DATE '2020-02-30'"; "SELECT CAST('2021-04-31' AS DATE)" ]);
    Util.tc "to_string formats" (fun () ->
        Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
        Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true));
        Alcotest.(check string) "float integral" "2.0" (Value.to_string (Value.Float 2.0)));
    Util.tc "encode_key is injective on distinct tuples" (fun () ->
        let tuples =
          [ [| v_str "a"; v_str "b" |];
            [| v_str "ab"; v_str "" |];
            [| v_str "a\x00b" |];
            [| v_str "a"; Value.Null |];
            [| Value.Null; v_str "a" |];
            [| v_int 1; v_int 2 |];
            [| v_int 12 |];
            [| Value.Bool true |];
            [| Value.Bool false |] ]
        in
        let keys = List.map Value.encode_key tuples in
        let distinct = List.sort_uniq String.compare keys in
        Alcotest.(check int) "all distinct" (List.length tuples) (List.length distinct));
  ]

(* encode_key over single same-type values preserves the value order *)
let qcheck =
  let open QCheck in
  [ Test.make ~count:500 ~name:"encode_key(int) preserves order"
      (pair int int)
      (fun (a, b) ->
         let ka = Value.encode_key [| Value.Int a |] in
         let kb = Value.encode_key [| Value.Int b |] in
         compare a b = compare (String.compare ka kb) 0
         || (a < b) = (String.compare ka kb < 0));
    Test.make ~count:500 ~name:"encode_key(string) preserves order"
      (pair string string)
      (fun (a, b) ->
         let ka = Value.encode_key [| Value.Str a |] in
         let kb = Value.encode_key [| Value.Str b |] in
         (String.compare a b < 0) = (String.compare ka kb < 0)
         || String.equal a b);
    Test.make ~count:1000 ~name:"civil/days conversion is a bijection"
      (triple (int_range 1600 2400) (int_range 1 12) (int_range 1 28))
      (fun (year, month, day) ->
         let d = Value.days_from_civil ~year ~month ~day in
         Value.civil_from_days d = (year, month, day)
         && Value.days_from_civil
              ~year:(let y, _, _ = Value.civil_from_days (d + 1) in y)
              ~month:(let _, m, _ = Value.civil_from_days (d + 1) in m)
              ~day:(let _, _, dd = Value.civil_from_days (d + 1) in dd)
            = d + 1);
    Test.make ~count:500 ~name:"row hash respects row equality"
      (list (pair int bool))
      (fun cells ->
         let row1 =
           Array.of_list
             (List.map (fun (i, b) -> if b then Value.Int i else Value.Str (string_of_int i)) cells)
         in
         let row2 = Array.copy row1 in
         Row.equal row1 row2 && Row.hash row1 = Row.hash row2);
  ]

let suite = suite @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck
