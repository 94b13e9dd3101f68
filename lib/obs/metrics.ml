(** The metrics registry. One record type backs all three instrument
    kinds; the .mli hides it behind abstract handle types. *)

(* 1µs, 2µs, 4µs, ... ~33.5s: covers compile-time nanobenchmarks up to
   full-recompute refreshes at --full scale *)
let bucket_bounds =
  Array.init 26 (fun i -> 1e-6 *. (2.0 ** float_of_int i))

let n_buckets = Array.length bucket_bounds + 1  (* + overflow *)

type kind = Counter | Gauge | Histogram

type metric = {
  name : string;
  labels : (string * string) list;  (* sorted by key *)
  help : string;
  kind : kind;
  mutable icount : int;    (* counter value / histogram observation count *)
  mutable fsum : float;    (* gauge value / histogram sum *)
  mutable vmin : float;
  mutable vmax : float;
  mutable touched : bool;  (* updated since the last reset? *)
  buckets : int array;     (* per-bucket counts; [||] unless histogram *)
}

type counter = metric
type gauge = metric
type histogram = metric

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* One registry-wide lock makes every instrument safe to update from any
   thread or domain (the server's session, ticker and /metrics threads
   share this registry). Updates are per-statement
   or per-batch, never per-row, so an uncontended lock/unlock is noise
   next to the work being measured. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let key_of name labels =
  name ^ "|"
  ^ String.concat ","
      (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let get_or_create ?(help = "") ?(labels = []) kind name =
  let labels = List.sort compare labels in
  let key = key_of name labels in
  locked @@ fun () ->
  match Hashtbl.find_opt registry key with
  | Some m ->
    if m.kind <> kind then
      invalid_arg
        (Printf.sprintf "metric %S already registered with another kind" name);
    m
  | None ->
    let m =
      { name; labels; help; kind; icount = 0; fsum = 0.0;
        vmin = infinity; vmax = neg_infinity; touched = false;
        buckets = (if kind = Histogram then Array.make n_buckets 0 else [||]) }
    in
    Hashtbl.replace registry key m;
    m

let counter ?help ?labels name = get_or_create ?help ?labels Counter name

let add c n =
  locked @@ fun () ->
  c.icount <- c.icount + n;
  c.touched <- true

let incr c = add c 1
let counter_value c = locked (fun () -> c.icount)

let gauge ?help ?labels name = get_or_create ?help ?labels Gauge name

let set_gauge g v =
  locked @@ fun () ->
  g.fsum <- v;
  g.touched <- true

let set_gauge_int g v = set_gauge g (float_of_int v)

let histogram ?help ?labels name = get_or_create ?help ?labels Histogram name

let bucket_index v =
  let rec go i =
    if i >= Array.length bucket_bounds then Array.length bucket_bounds
    else if v <= bucket_bounds.(i) then i
    else go (i + 1)
  in
  go 0

let observe h v =
  locked @@ fun () ->
  h.icount <- h.icount + 1;
  h.fsum <- h.fsum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
  h.touched <- true

let hist_count h = locked (fun () -> h.icount)
let hist_sum h = locked (fun () -> h.fsum)

(* An empty histogram (fresh, or wiped by [reset_values]) has vmin = +inf
   and vmax = -inf: the final clamp would turn any interpolated value into
   ±infinity, so the empty case short-circuits to nan — a defined "no
   observations" marker that the text renderer prints as-is and the JSON
   renderer maps to null. *)
let percentile h p =
  locked @@ fun () ->
  if h.icount = 0 then nan
  else begin
    let rank = p *. float_of_int h.icount in
    let rec find b cum_before =
      if b >= n_buckets then (n_buckets - 1, cum_before)
      else
        let cum = cum_before + h.buckets.(b) in
        if float_of_int cum >= rank && h.buckets.(b) > 0 then (b, cum_before)
        else find (b + 1) cum
    in
    let b, cum_before = find 0 0 in
    let lo = if b = 0 then 0.0 else bucket_bounds.(b - 1) in
    let hi =
      if b >= Array.length bucket_bounds then max h.vmax lo
      else bucket_bounds.(b)
    in
    let in_bucket = float_of_int h.buckets.(b) in
    let frac =
      if in_bucket <= 0.0 then 1.0
      else (rank -. float_of_int cum_before) /. in_bucket
    in
    let v = lo +. (frac *. (hi -. lo)) in
    Float.min h.vmax (Float.max h.vmin v)
  end

let reset_values () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
       m.icount <- 0;
       m.fsum <- 0.0;
       m.vmin <- infinity;
       m.vmax <- neg_infinity;
       m.touched <- false;
       Array.fill m.buckets 0 (Array.length m.buckets) 0)
    registry

type snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      sum : float;
      vmin : float;
      vmax : float;
      buckets : (float * int) list;
    }

let snapshot () =
  locked @@ fun () ->
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  let live = List.filter (fun m -> m.touched) all in
  let sorted =
    List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) live
  in
  List.map
    (fun m ->
       let v =
         match m.kind with
         | Counter -> Counter_v m.icount
         | Gauge -> Gauge_v m.fsum
         | Histogram ->
           let cum = ref 0 in
           let buckets =
             List.init n_buckets (fun i ->
                 cum := !cum + m.buckets.(i);
                 let le =
                   if i >= Array.length bucket_bounds then infinity
                   else bucket_bounds.(i)
                 in
                 (le, !cum))
           in
           Histogram_v
             { count = m.icount; sum = m.fsum; vmin = m.vmin; vmax = m.vmax;
               buckets }
       in
       (m.name, m.labels, m.help, v))
    sorted
