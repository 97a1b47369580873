(** Chrome/Perfetto trace-event collector: timed events on named tracks,
    exported as trace-event JSON loadable in [ui.perfetto.dev].

    Tracks map to Perfetto threads (one per executor domain plus
    coordinator / optimizer tracks); each is named with a ["thread_name"]
    metadata event.  The collector is zero-cost when disabled ({!null})
    and domain-safe when enabled (the event buffer is mutex-guarded; one
    lock acquisition per emitted event).  Exported timestamps are
    microseconds relative to the collector's creation instant, so they
    are non-negative and the event list is sorted (monotone ["ts"]). *)

type t

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start : float;  (** absolute clock seconds *)
  ev_dur : float;  (** seconds *)
  ev_tid : int;  (** track id *)
  ev_args : (string * Json.t) list;
}

val null : t
(** The shared disabled collector: all operations are no-ops. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A fresh enabled collector; [clock] defaults to [Unix.gettimeofday] and
    is injectable for deterministic tests.  The creation instant becomes
    the trace epoch (exported ts 0). *)

val enabled : t -> bool

val now : t -> float
(** Read the collector's clock (absolute seconds). *)

val reset : t -> unit
(** Drop all events and track registrations. *)

(** {1 Tracks} *)

val declare_track : t -> tid:int -> string -> unit
(** Name track [tid] (idempotent).  Declare every executor-domain track up
    front so idle domains still appear in the exported trace. *)

val track_ids : t -> int list
(** All declared track ids, sorted. *)

(** {1 Recording} *)

val emit :
  t ->
  tid:int ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  name:string ->
  start:float ->
  stop:float ->
  unit ->
  unit
(** Append one complete ("X") event covering [start, stop] (absolute clock
    seconds) on track [tid].  [cat] defaults to ["exec"]. *)

val add_obs_spans : t -> tid:int -> ?cat:string -> Obs.span list -> unit
(** Render a completed {!Obs} span tree (e.g. the optimizer's phase spans)
    as events on one track; nesting becomes containment on the timeline.
    [cat] defaults to ["span"]. *)

val event_count : t -> int

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] — metadata
    (process/thread names) first, then X events sorted by start time, ts
    and dur in microseconds. *)

val write_file : t -> string -> unit
