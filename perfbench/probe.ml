(** Host-speed calibration probe.

    About 7 ms of fixed work: a short integer loop, then a strided write
    walk over a 64 MiB buffer held outside the OCaml heap (one store every
    256 bytes, 262144 stores).  It shares no code or data with the program
    under test, only the caches: a program that moves more memory slows
    the probe by a few percent at most.  On the measurement host, the
    write walk tracks the program: it allocates hundreds of megabytes a
    second, a stream of writes, so contention for memory bandwidth from
    other guests moves both together.  Timings are scaled by
    [reference_ms / measured probe]; perfbench/README.md gives the
    evidence. *)

let reference_ms = 7.0
let sink = ref 0

let spin () =
  let x = ref 0x2545F491 in
  for i = 1 to 160_000 do
    x := ((!x * 48271) + i) land 0x3fffffff
  done;
  sink := !sink + !x

let buffer_len = 1 lsl 23
let stride = 32

let buffer =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout buffer_len in
  Bigarray.Array1.fill b 0;
  b

let write_walk () =
  for i = 0 to (buffer_len / stride) - 1 do
    Bigarray.Array1.unsafe_set buffer (i * stride) i
  done

(** One probe, in milliseconds. *)
let run () =
  let t0 = Monotonic_clock.now () in
  spin ();
  write_walk ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-6
