(** Calendar arithmetic tests ({!Mpp_expr.Date}). *)

open Mpp_expr

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_epoch () =
  check_int "1970-01-01 is day 0" 0 (Date.of_ymd 1970 1 1);
  check_int "1970-01-02 is day 1" 1 (Date.of_ymd 1970 1 2);
  check_int "1969-12-31 is day -1" (-1) (Date.of_ymd 1969 12 31)

let test_roundtrip_known () =
  List.iter
    (fun (y, m, d) ->
      let t = Date.of_ymd y m d in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%04d-%02d-%02d roundtrips" y m d)
        (y, m, d) (Date.to_ymd t))
    [ (1970, 1, 1); (2000, 2, 29); (1900, 3, 1); (2012, 12, 31);
      (2013, 10, 1); (1992, 1, 1); (2400, 2, 29); (1, 1, 1) ]

let test_leap_years () =
  Alcotest.(check bool) "2000 is leap" true (Date.is_leap_year 2000);
  Alcotest.(check bool) "1900 is not leap" false (Date.is_leap_year 1900);
  Alcotest.(check bool) "2012 is leap" true (Date.is_leap_year 2012);
  Alcotest.(check bool) "2013 is not leap" false (Date.is_leap_year 2013);
  check_int "Feb 2012 has 29 days" 29 (Date.days_in_month 2012 2);
  check_int "Feb 2013 has 28 days" 28 (Date.days_in_month 2013 2);
  check_int "2012 has 366 days" 366 (Date.days_in_year 2012)

let test_day_of_week () =
  (* 1970-01-01 was a Thursday = 4 in ISO numbering *)
  check_int "epoch is Thursday" 4 (Date.day_of_week (Date.of_ymd 1970 1 1));
  check_int "2013-10-01 is Tuesday" 2 (Date.day_of_week (Date.of_ymd 2013 10 1));
  check_int "2012-01-01 is Sunday" 7 (Date.day_of_week (Date.of_ymd 2012 1 1))

let test_add_months () =
  check_str "add 1 month" "2012-02-01"
    (Date.to_string (Date.add_months (Date.of_ymd 2012 1 15) 1));
  check_str "add 12 months" "2013-01-01"
    (Date.to_string (Date.add_months (Date.of_ymd 2012 1 1) 12));
  check_str "add crosses year" "2013-02-01"
    (Date.to_string (Date.add_months (Date.of_ymd 2012 11 30) 3));
  check_str "negative months" "2011-11-01"
    (Date.to_string (Date.add_months (Date.of_ymd 2012 1 10) (-2)))

let test_quarter () =
  check_int "January is Q1" 1 (Date.quarter (Date.of_ymd 2013 1 15));
  check_int "June is Q2" 2 (Date.quarter (Date.of_ymd 2013 6 30));
  check_int "October is Q4" 4 (Date.quarter (Date.of_ymd 2013 10 1))

let test_strings () =
  check_str "to_string pads" "2013-01-05"
    (Date.to_string (Date.of_ymd 2013 1 5));
  check_int "of_string inverse" (Date.of_ymd 2013 10 1)
    (Date.of_string "2013-10-01");
  Alcotest.check_raises "of_string rejects garbage"
    (Invalid_argument "Date.of_string: oops") (fun () ->
      ignore (Date.of_string "oops"))

let test_invalid () =
  Alcotest.check_raises "month 13 rejected"
    (Invalid_argument "Date.of_ymd: month out of range") (fun () ->
      ignore (Date.of_ymd 2013 13 1));
  Alcotest.check_raises "Feb 30 rejected"
    (Invalid_argument "Date.of_ymd: day out of range") (fun () ->
      ignore (Date.of_ymd 2013 2 30))

(* year/month/day against a calendar walked one day at a time from
   1600-03-01 to 2400-12-31, across both century rules *)
let test_calendar_walk () =
  let t = ref (Date.of_ymd 1600 3 1) in
  for y = 1600 to 2400 do
    for m = (if y = 1600 then 3 else 1) to 12 do
      for d = 1 to Date.days_in_month y m do
        if (Date.year !t, Date.month !t, Date.day !t) <> (y, m, d) then
          Alcotest.failf "day %d: got %s, expected %04d-%02d-%02d" !t
            (Date.to_string !t) y m d;
        incr t
      done
    done
  done

let prop_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"to_ymd(of_ymd) roundtrips"
    QCheck2.Gen.(int_range (-100_000) 100_000)
    (fun t ->
      let y, m, d = Date.to_ymd t in
      Date.of_ymd y m d = t)

let prop_add_days_ordered =
  QCheck2.Test.make ~count:500 ~name:"add_days respects order"
    QCheck2.Gen.(pair (int_range (-10_000) 10_000) (int_range 1 5_000))
    (fun (t, n) -> Date.compare (Date.add_days t n) t > 0)

let prop_month_boundaries =
  QCheck2.Test.make ~count:500 ~name:"add_months yields first-of-month"
    QCheck2.Gen.(pair (int_range 0 20_000) (int_range (-30) 30))
    (fun (t, n) -> Date.day (Date.add_months t n) = 1)

let () =
  Alcotest.run "date"
    [ ("unit",
       [ Alcotest.test_case "epoch" `Quick test_epoch;
         Alcotest.test_case "roundtrip known dates" `Quick test_roundtrip_known;
         Alcotest.test_case "leap years" `Quick test_leap_years;
         Alcotest.test_case "day of week" `Quick test_day_of_week;
         Alcotest.test_case "add months" `Quick test_add_months;
         Alcotest.test_case "quarter" `Quick test_quarter;
         Alcotest.test_case "string conversions" `Quick test_strings;
         Alcotest.test_case "invalid dates" `Quick test_invalid;
         Alcotest.test_case "calendar walk" `Quick test_calendar_walk ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_roundtrip; prop_add_days_ordered; prop_month_boundaries ]) ]
