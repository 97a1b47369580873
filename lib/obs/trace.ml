(** Chrome/Perfetto trace-event collector: the timeline half of the query
    profiler.

    Recording sites emit {e complete} ("ph":"X") events — a name, a
    category, a wall-clock interval and a {e track} id — and {!to_json}
    renders the whole buffer in the Chrome trace-event JSON format, which
    [ui.perfetto.dev] (and [chrome://tracing]) load directly.  Tracks map
    to Perfetto threads: one per executor domain, plus the coordinator and
    optimizer tracks, each named through a ["thread_name"] metadata event.

    Like {!Obs}, the collector is zero-cost when disabled ({!null} plus a
    single flag test per emit) and domain-safe when enabled: the event
    buffer is guarded by one mutex, taken only on emit — per-segment
    operator tasks emit one event each, so contention is negligible next
    to the work being timed.

    Timestamps are stored as raw clock readings (seconds) and exported in
    microseconds relative to the collector's creation instant, so traces
    start at ts 0 and every exported ts is non-negative. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start : float;  (** absolute clock seconds *)
  ev_dur : float;  (** seconds *)
  ev_tid : int;  (** track id *)
  ev_args : (string * Json.t) list;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  epoch : float;  (** clock at creation; exported ts are relative to it *)
  lock : Mutex.t;  (** guards [events] and [tracks] *)
  mutable events : event list;  (** reverse emission order *)
  tracks : (int, string) Hashtbl.t;  (** tid -> thread_name *)
}

(* ---- construction ---- *)

let null =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    epoch = 0.0;
    lock = Mutex.create ();
    events = [];
    tracks = Hashtbl.create 1;
  }

let create ?(clock = Unix.gettimeofday) () =
  {
    enabled = true;
    clock;
    epoch = clock ();
    lock = Mutex.create ();
    events = [];
    tracks = Hashtbl.create 8;
  }

let enabled t = t.enabled

let now t = t.clock ()

let reset t =
  Mutex.lock t.lock;
  t.events <- [];
  Hashtbl.reset t.tracks;
  Mutex.unlock t.lock

(* ---- tracks ---- *)

(** Name track [tid]; idempotent (last registration wins).  Registering
    every executor-domain track up front — before any event lands on it —
    guarantees the exported trace shows one named track per domain even
    for domains the scheduler left idle. *)
let declare_track t ~tid name =
  if t.enabled then begin
    Mutex.lock t.lock;
    Hashtbl.replace t.tracks tid name;
    Mutex.unlock t.lock
  end

let track_ids t =
  Mutex.lock t.lock;
  let ids = Hashtbl.fold (fun tid _ acc -> tid :: acc) t.tracks [] in
  Mutex.unlock t.lock;
  List.sort Int.compare ids

(* ---- recording ---- *)

let emit t ~tid ?(cat = "exec") ?(args = []) ~name ~start ~stop () =
  if t.enabled then begin
    let ev =
      {
        ev_name = name;
        ev_cat = cat;
        ev_start = start;
        ev_dur = Float.max 0.0 (stop -. start);
        ev_tid = tid;
        ev_args = args;
      }
    in
    Mutex.lock t.lock;
    t.events <- ev :: t.events;
    Mutex.unlock t.lock
  end

let event_count t =
  Mutex.lock t.lock;
  let n = List.length t.events in
  Mutex.unlock t.lock;
  n

(* Convert a completed {!Obs} span tree onto one track: each span becomes
   an X event at its recorded absolute start/elapsed, so nesting shows up
   as containment on the timeline — how the optimizer's phase spans land
   on the "optimizer" track. *)
let add_obs_spans t ~tid ?(cat = "span") (spans : Obs.span list) =
  if t.enabled then
    let rec go (s : Obs.span) =
      let dur = if Float.is_nan s.Obs.span_elapsed then 0.0 else s.Obs.span_elapsed in
      emit t ~tid ~cat ~name:s.Obs.span_name ~start:s.Obs.span_start
        ~stop:(s.Obs.span_start +. dur) ();
      List.iter go s.Obs.span_children
    in
    List.iter go spans

(* ---- export ---- *)

let us t abs = Float.max 0.0 ((abs -. t.epoch) *. 1e6)

let event_to_json t ev =
  Json.Obj
    ([
       ("name", Json.String ev.ev_name);
       ("cat", Json.String ev.ev_cat);
       ("ph", Json.String "X");
       ("ts", Json.Float (us t ev.ev_start));
       ("dur", Json.Float (ev.ev_dur *. 1e6));
       ("pid", Json.Int 1);
       ("tid", Json.Int ev.ev_tid);
     ]
    @ match ev.ev_args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let metadata_json t =
  let tracks =
    Mutex.lock t.lock;
    let l = Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) t.tracks [] in
    Mutex.unlock t.lock;
    List.sort (fun (a, _) (b, _) -> Int.compare a b) l
  in
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.String "mppsim") ]);
    ]
  :: List.map
       (fun (tid, name) ->
         Json.Obj
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 1);
             ("tid", Json.Int tid);
             ("args", Json.Obj [ ("name", Json.String name) ]);
           ])
       tracks

(** The whole buffer in Chrome trace-event JSON:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Metadata
    (process/thread names) first, then the X events sorted by start time —
    so the ["ts"] sequence is monotonically non-decreasing, which the
    export-shape tests pin down. *)
let to_json t =
  let events =
    Mutex.lock t.lock;
    let l = t.events in
    Mutex.unlock t.lock;
    List.stable_sort
      (fun a b ->
        let c = Float.compare a.ev_start b.ev_start in
        if c <> 0 then c else Int.compare a.ev_tid b.ev_tid)
      (List.rev l)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (metadata_json t @ List.map (event_to_json t) events) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write_file t path = Json.to_file path (to_json t)
