(** Proleptic-Gregorian calendar arithmetic.

    Dates are represented as a number of days since the epoch 1970-01-01
    (negative for earlier dates).  This gives dates a total order and cheap
    arithmetic, which the partitioning layer relies on: monthly partition
    bounds are just day numbers, and range tests are integer comparisons. *)

type t = int
(** Days since 1970-01-01. *)

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> invalid_arg "Date.days_in_month"

let days_in_year y = if is_leap_year y then 366 else 365

(* Count of days from 0000-03-01 to year [y], month [m] (1-12), day [d],
   using the standard civil-date algorithm (Howard Hinnant's days_from_civil),
   shifted so that 1970-01-01 = 0. *)
let of_ymd y m d =
  if m < 1 || m > 12 then invalid_arg "Date.of_ymd: month out of range";
  if d < 1 || d > days_in_month y m then
    invalid_arg "Date.of_ymd: day out of range";
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

(* Inverse of [of_ymd] (civil_from_days), in steps that each return one
   int, so {!year}, {!month} and {!day} build no tuple.  [z] is the day
   count shifted to start at 0000-03-01; [doe] the day of its 400-year
   era, [yoe] the year of the era, [doy] the day of the March-based year,
   [mp] its month (0 = March). *)
let shifted (t : t) = t + 719468
let era z = (if z >= 0 then z else z - 146096) / 146097
let day_of_era z = z - (era z * 146097)
let year_of_era doe =
  (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365
let day_of_year doe yoe = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100))
let march_month doy = ((5 * doy) + 2) / 153

let month t =
  let doe = day_of_era (shifted t) in
  let mp = march_month (day_of_year doe (year_of_era doe)) in
  if mp < 10 then mp + 3 else mp - 9

let day t =
  let doe = day_of_era (shifted t) in
  let doy = day_of_year doe (year_of_era doe) in
  doy - (((153 * march_month doy) + 2) / 5) + 1

let year t =
  let z = shifted t in
  let doe = day_of_era z in
  let yoe = year_of_era doe in
  let y = yoe + (era z * 400) in
  (* January and February belong to the March-based year before *)
  if march_month (day_of_year doe yoe) >= 10 then y + 1 else y

let to_ymd t =
  let z = shifted t in
  let doe = day_of_era z in
  let yoe = year_of_era doe in
  let doy = day_of_year doe yoe in
  let mp = march_month doy in
  let y = yoe + (era z * 400) in
  ( (if mp >= 10 then y + 1 else y),
    (if mp < 10 then mp + 3 else mp - 9),
    doy - (((153 * mp) + 2) / 5) + 1 )

(** ISO day of week: 1 = Monday ... 7 = Sunday. 1970-01-01 was a Thursday. *)
let day_of_week (t : t) =
  let d = ((t + 3) mod 7 + 7) mod 7 in
  d + 1

let add_days t n = t + n

(** First day of the month [n] months after the month containing [t]. *)
let add_months t n =
  let y, m, _ = to_ymd t in
  let mm = m - 1 + n in
  let y = y + (if mm >= 0 then mm / 12 else -(((-mm) + 11) / 12)) in
  let m = ((mm mod 12) + 12) mod 12 + 1 in
  of_ymd y m 1

let quarter t = ((month t - 1) / 3) + 1

let compare = Int.compare
let equal = Int.equal

let to_string t =
  let y, m, d = to_ymd t in
  Printf.sprintf "%04d-%02d-%02d" y m d

(** Parses ["YYYY-MM-DD"]. *)
let of_string s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      try of_ymd (int_of_string y) (int_of_string m) (int_of_string d)
      with _ -> invalid_arg ("Date.of_string: " ^ s))
  | _ -> invalid_arg ("Date.of_string: " ^ s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
