(** Structured diagnostics emitted by the plan verifier. *)

type severity = Error | Warning

type pass = Structure | Schema | Distribution | Accounting | Filters | Pruning

type t = {
  severity : severity;
  pass : pass;
  code : string;
  path : string;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let pass_to_string = function
  | Structure -> "structure"
  | Schema -> "schema"
  | Distribution -> "distribution"
  | Accounting -> "accounting"
  | Filters -> "filters"
  | Pruning -> "pruning"

let make ?(severity = Error) ~pass ~code ~path message =
  { severity; pass; code; path; message }

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let has_code code ds = List.exists (fun d -> d.code = code) ds

let pp fmt d =
  Format.fprintf fmt "[%s] %s at %s: %s"
    (severity_to_string d.severity)
    d.code d.path d.message

let to_string d = Format.asprintf "%a" pp d

let to_json d =
  Mpp_obs.Json.Obj
    [
      ("severity", Mpp_obs.Json.String (severity_to_string d.severity));
      ("pass", Mpp_obs.Json.String (pass_to_string d.pass));
      ("code", Mpp_obs.Json.String d.code);
      ("path", Mpp_obs.Json.String d.path);
      ("message", Mpp_obs.Json.String d.message);
    ]
