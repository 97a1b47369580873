(** Structured diagnostics emitted by the plan verifier.

    Every finding carries the {e pass} that produced it, a stable machine
    code (["structure/unmatched-scan"], ["schema/unresolved-column"], …) the
    mutation-kill harness asserts against, the {e path} of the offending
    node in the plan tree, and a human message. *)

type severity = Error | Warning

type pass = Structure | Schema | Distribution | Accounting | Filters | Pruning

type t = {
  severity : severity;
  pass : pass;
  code : string;  (** stable machine-readable identifier, [pass/rule] *)
  path : string;  (** plan-tree path of the offending node, root first *)
  message : string;
}

val severity_to_string : severity -> string
val pass_to_string : pass -> string

val make :
  ?severity:severity -> pass:pass -> code:string -> path:string -> string -> t
(** [severity] defaults to [Error]. *)

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

val has_code : string -> t list -> bool
(** Does any diagnostic carry this code? *)

val pp : Format.formatter -> t -> unit
(** [[error] structure/unmatched-scan at Gather/0.HashJoin: …] *)

val to_string : t -> string
val to_json : t -> Mpp_obs.Json.t
