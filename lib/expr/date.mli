(** Proleptic-Gregorian calendar arithmetic.

    Dates are a number of days since 1970-01-01 (negative before), giving a
    total order and cheap arithmetic: monthly partition bounds are day
    numbers and range tests are integer comparisons. *)

type t = int
(** Days since 1970-01-01. *)

val is_leap_year : int -> bool

val days_in_month : int -> int -> int
(** [days_in_month y m] for month [m] (1–12); raises [Invalid_argument]
    otherwise. *)

val days_in_year : int -> int

val of_ymd : int -> int -> int -> t
(** [of_ymd y m d] — raises [Invalid_argument] when [m]/[d] are out of
    range for the given year. *)

val to_ymd : t -> int * int * int
(** Inverse of {!of_ymd}: [(year, month, day)]. *)

val year : t -> int
val month : t -> int
val day : t -> int

val day_of_week : t -> int
(** ISO numbering: 1 = Monday … 7 = Sunday. *)

val add_days : t -> int -> t

val add_months : t -> int -> t
(** First day of the month [n] months after the month containing [t]. *)

val quarter : t -> int
(** 1–4. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** ["YYYY-MM-DD"]. *)

val of_string : string -> t
(** Parses ["YYYY-MM-DD"]; raises [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
