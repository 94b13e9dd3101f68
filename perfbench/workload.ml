(* Seeded inputs. Every row, statement and arrival time of a run is a
   function of (workload, seed, seconds): the system under test receives
   only the SQL generated here, and [digest] fingerprints it. *)

module Wire = Openivm_server.Wire

type kind = Write | Read | Txn

type op = {
  due : float;  (** seconds after the phase starts *)
  conn : int;  (** 0 = writer connection, 1 = reader connection *)
  kind : kind;
  lines : string list;  (** wire request lines, one reply frame each *)
  commit_frame : int;
      (** index of the frame whose reply commits the write unit; -1 for
          reads. For [Txn] the frame after it is the visibility read. *)
}

type name = Eager_commits | Lazy_star | Durable_ingest

let names =
  [ ("eager_commits", Eager_commits); ("lazy_star", Lazy_star);
    ("durable_ingest", Durable_ingest) ]

let to_string n = fst (List.find (fun (_, m) -> m = n) names)

(* Sizes and rates. Rates are absolute (operations per second), never
   derived from a measured capacity. [small] is the smoke-test scale. *)
type params = {
  base_rows : int;  (** events rows, or sales rows in lazy_star *)
  groups : int;  (** events groups, or customers in lazy_star *)
  regions : int;
  write_rate : float;  (** write units per second *)
  read_rate : float;  (** independent reads per second *)
  txn_rows : int;  (** lazy_star: rows per transaction INSERT *)
  txn_churn : int;  (** lazy_star: ids deleted and ids updated per txn *)
  read_every : int;  (** durable_ingest: commits between point reads *)
  checkpoint_every : int;  (** durable_ingest: commits per checkpoint *)
  rounds : int;
      (** durable_ingest: timed streams, each from its own recovered copy
          of the same directory *)
  stream_per_s : int;
      (** durable_ingest: commits in each timed stream per second of
          [--seconds]. The stream is a fixed amount of work, not a fixed
          time, so both sides of a comparison end with the same table. *)
  tail_commits : int;  (** durable_ingest: commits after the last checkpoint *)
  reopens : int;  (** durable_ingest: recovery cycles of the traced run *)
}

let params ~small = function
  | Eager_commits ->
      { base_rows = (if small then 2_000 else 50_000);
        groups = (if small then 50 else 1_000); regions = 0;
        write_rate = 15.0; read_rate = 30.0; txn_rows = 0; txn_churn = 0;
        read_every = 0; checkpoint_every = 0; rounds = 0; stream_per_s = 0; tail_commits = 0;
        reopens = 0 }
  | Lazy_star ->
      { base_rows = (if small then 1_000 else 20_000);
        groups = (if small then 100 else 2_000); regions = 8;
        write_rate = 8.0; read_rate = 24.0; txn_rows = 75; txn_churn = 12;
        read_every = 0; checkpoint_every = 0; rounds = 0; stream_per_s = 0; tail_commits = 0;
        reopens = 0 }
  | Durable_ingest ->
      { base_rows = (if small then 2_000 else 50_000);
        groups = (if small then 50 else 1_000); regions = 0;
        write_rate = 0.0; read_rate = 0.0; txn_rows = 0; txn_churn = 0;
        read_every = 50;
        checkpoint_every = (if small then 500 else 5_000);
        rounds = (if small then 2 else 24);
        stream_per_s = (if small then 200 else 240);
        tail_commits = (if small then 100 else 20_000);
        reopens = (if small then 2 else 12) }

let rng seed tag stream = Random.State.make [| seed; tag; stream |]

(* Ids currently present in a table: O(1) random pick and removal. *)
module Live = struct
  type t = {
    mutable ids : int array;
    mutable n : int;
    pos : (int, int) Hashtbl.t;
  }

  let create () = { ids = Array.make 1024 0; n = 0; pos = Hashtbl.create 1024 }

  let add t id =
    if t.n = Array.length t.ids then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.ids 0 a 0 t.n;
      t.ids <- a
    end;
    t.ids.(t.n) <- id;
    Hashtbl.replace t.pos id t.n;
    t.n <- t.n + 1

  let remove t id =
    match Hashtbl.find_opt t.pos id with
    | None -> ()
    | Some i ->
        let last = t.ids.(t.n - 1) in
        t.ids.(i) <- last;
        Hashtbl.replace t.pos last i;
        Hashtbl.remove t.pos id;
        t.n <- t.n - 1

  let mem t id = Hashtbl.mem t.pos id
  let pick st t = t.ids.(Random.State.int st t.n)

  let filter t keep =
    let u = create () in
    for i = 0 to t.n - 1 do
      if keep t.ids.(i) then add u t.ids.(i)
    done;
    u
end

let sql s = Wire.render_request (Wire.Sql s)

let insert_sql table rows =
  Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " rows)

(* Base rows as multi-row INSERTs of [chunk] rows each. *)
let chunked_inserts table rows ~chunk =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else insert_sql table (List.rev cur) :: acc)
    | r :: rest ->
        if n = chunk then go (insert_sql table (List.rev cur) :: acc) [ r ] 1 rest
        else go acc (r :: cur) (n + 1) rest
  in
  go [] [] 0 rows

(* Poisson arrivals at [rate] per second over [0, until). *)
let arrivals st ~rate ~until =
  let rec go t acc =
    let t = t +. (-.log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= until then List.rev acc else go t (t :: acc)
  in
  if rate <= 0.0 then [] else go 0.0 []

(* ------------------------------------------------------------------ *)
(* events: eager_commits and durable_ingest                            *)

let events_schema =
  "CREATE TABLE events (id INTEGER PRIMARY KEY, grp VARCHAR, amount INTEGER)"

let events_view =
  "CREATE MATERIALIZED VIEW grp_totals AS SELECT grp, SUM(amount) AS total, \
   COUNT(*) AS n FROM events GROUP BY grp"

let grp_name g = Printf.sprintf "g%04d" g

(* The DML mix: 70% two-row INSERT, 15% UPDATE of amount by id, 15%
   DELETE by id. Ids come from the generator's own model of the table,
   so every UPDATE and DELETE hits exactly one live row. *)
type events_gen = {
  st : Random.State.t;
  live : Live.t;
  mutable next_id : int;
  groups : int;
}

let events_row g id =
  Printf.sprintf "(%d, '%s', %d)" id
    (grp_name (Random.State.int g.st g.groups))
    (1 + Random.State.int g.st 1000)

let next_dml g =
  let r = Random.State.float g.st 1.0 in
  if r < 0.70 || g.live.Live.n < 2 then begin
    let a = g.next_id in
    g.next_id <- a + 2;
    let r1 = events_row g a in
    let r2 = events_row g (a + 1) in
    Live.add g.live a;
    Live.add g.live (a + 1);
    insert_sql "events" [ r1; r2 ]
  end
  else if r < 0.85 then
    let id = Live.pick g.st g.live in
    Printf.sprintf "UPDATE events SET amount = %d WHERE id = %d"
      (1 + Random.State.int g.st 1000) id
  else begin
    let id = Live.pick g.st g.live in
    Live.remove g.live id;
    Printf.sprintf "DELETE FROM events WHERE id = %d" id
  end

let point_read g =
  Printf.sprintf "SELECT total, n FROM grp_totals WHERE grp = '%s'"
    (grp_name (Random.State.int g.st g.groups))

(* Base rows for events, and a generator whose model holds them. *)
let events_setup ~seed ~tag (p : params) =
  let g = { st = rng seed tag 0; live = Live.create (); next_id = 1;
            groups = p.groups } in
  let rows =
    List.init p.base_rows (fun i ->
        Live.add g.live (i + 1);
        events_row g (i + 1))
  in
  g.next_id <- p.base_rows + 1;
  (chunked_inserts "events" rows ~chunk:1000, g)

(* ------------------------------------------------------------------ *)
(* lazy_star                                                           *)

let star_schema =
  [ "CREATE TABLE sales (sale_id INTEGER PRIMARY KEY, cust INTEGER, amount \
     INTEGER)";
    "CREATE TABLE customers (cust INTEGER PRIMARY KEY, region VARCHAR, tier \
     INTEGER)" ]

let star_views =
  [ "CREATE MATERIALIZED VIEW region_rev AS SELECT c.region, SUM(s.amount) \
     AS rev, COUNT(*) AS n FROM sales s JOIN customers c ON s.cust = c.cust \
     GROUP BY c.region";
    "CREATE MATERIALIZED VIEW cust_range AS SELECT cust, MIN(amount) AS lo, \
     MAX(amount) AS hi FROM sales GROUP BY cust";
    "CREATE MATERIALIZED VIEW grand AS SELECT SUM(rev) AS total, COUNT(*) AS \
     regions FROM region_rev" ]

type star_gen = {
  s_st : Random.State.t;
  sales : Live.t;
  sale_cust : (int, int) Hashtbl.t;
  region : int array;  (** customer -> region index *)
  mutable next_sale : int;
  mutable prev_inserted : int list;
  s_customers : int;
  s_regions : int;
}

let star_read st g j =
  match j mod 3 with
  | 0 -> "SELECT * FROM grand"
  | 1 -> "SELECT * FROM region_rev"
  | _ ->
      Printf.sprintf "SELECT lo, hi FROM cust_range WHERE cust = %d"
        (1 + Random.State.int st g.s_customers)

let star_setup ~seed (p : params) =
  let st = rng seed 2 0 in
  let region = Array.init (p.groups + 1) (fun _ -> Random.State.int st p.regions) in
  let customers =
    List.init p.groups (fun i ->
        Printf.sprintf "(%d, 'r%d', %d)" (i + 1) region.(i + 1)
          (1 + Random.State.int st 3))
  in
  let g = { s_st = st; sales = Live.create (); sale_cust = Hashtbl.create 4096;
            region; next_sale = p.base_rows + 1; prev_inserted = [];
            s_customers = p.groups; s_regions = p.regions } in
  let sales =
    List.init p.base_rows (fun i ->
        let id = i + 1 and cust = 1 + Random.State.int st p.groups in
        Live.add g.sales id;
        Hashtbl.replace g.sale_cust id cust;
        Printf.sprintf "(%d, %d, %d)" id cust (1 + Random.State.int st 1000))
  in
  (chunked_inserts "customers" customers ~chunk:1000
   @ chunked_inserts "sales" sales ~chunk:1000, g)

(* One write unit: BEGIN; a [txn_rows]-row INSERT; a DELETE of
   [txn_churn] ids by IN-list, half of them inserted by the previous
   transaction (so consolidation has +/- pairs to cancel); [txn_churn]
   single-row UPDATEs; in one transaction of ten an UPDATE moving a
   customer to another region; COMMIT; then a read of one view the
   transaction changed, rotating over the three views. *)
let star_txn (p : params) g i =
  let st = g.s_st in
  let inserted =
    List.init p.txn_rows (fun _ ->
        let id = g.next_sale in
        g.next_sale <- id + 1;
        (id, 1 + Random.State.int st g.s_customers, 1 + Random.State.int st 1000))
  in
  let half = p.txn_churn / 2 in
  let chosen = Hashtbl.create 16 in
  let take id = Hashtbl.replace chosen id () in
  let fresh = List.filter (fun id -> Live.mem g.sales id) g.prev_inserted in
  let fresh = Array.of_list fresh in
  let n_fresh = min half (Array.length fresh) in
  (* a seeded partial shuffle picks the previous transaction's ids *)
  for k = 0 to n_fresh - 1 do
    let j = k + Random.State.int st (Array.length fresh - k) in
    let x = fresh.(j) in
    fresh.(j) <- fresh.(k);
    fresh.(k) <- x;
    take x
  done;
  while Hashtbl.length chosen < p.txn_churn do
    take (Live.pick st g.sales)
  done;
  let deleted = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) chosen []) in
  List.iter
    (fun (id, cust, _) ->
      Live.add g.sales id;
      Hashtbl.replace g.sale_cust id cust)
    inserted;
  List.iter (fun id -> Live.remove g.sales id; Hashtbl.remove g.sale_cust id) deleted;
  let updates =
    List.init p.txn_churn (fun _ ->
        Printf.sprintf "UPDATE sales SET amount = %d WHERE sale_id = %d"
          (1 + Random.State.int st 1000) (Live.pick st g.sales))
  in
  let move =
    if i mod 10 = 9 then begin
      let c = 1 + Random.State.int st g.s_customers in
      let r = (g.region.(c) + 1 + Random.State.int st (g.s_regions - 1)) mod g.s_regions in
      g.region.(c) <- r;
      [ Printf.sprintf "UPDATE customers SET region = 'r%d' WHERE cust = %d" r c ]
    end
    else []
  in
  g.prev_inserted <- List.map (fun (id, _, _) -> id) inserted;
  let read =
    match i mod 3 with
    | 2 ->
        let _, cust, _ = List.hd inserted in
        Printf.sprintf "SELECT lo, hi FROM cust_range WHERE cust = %d" cust
    | j -> star_read st g j
  in
  let body =
    insert_sql "sales"
      (List.map (fun (id, c, a) -> Printf.sprintf "(%d, %d, %d)" id c a) inserted)
    :: Printf.sprintf "DELETE FROM sales WHERE sale_id IN (%s)"
         (String.concat ", " (List.map string_of_int deleted))
    :: (updates @ move)
  in
  let lines =
    (Wire.render_request Wire.Begin :: List.map sql body)
    @ [ Wire.render_request Wire.Commit; sql read ]
  in
  (lines, List.length lines - 2)

(* ------------------------------------------------------------------ *)
(* Server workloads: setup script, views, the open-loop schedule and   *)
(* the closed-loop continuation                                        *)

type server_inputs = {
  schema : string list;  (** CREATE TABLE + base-row INSERTs *)
  views : string list;  (** CREATE MATERIALIZED VIEW, in install order *)
  schedule : op array;  (** the open-loop phase, sorted by due time *)
  closed : int -> op;
      (** next back-to-back write unit for connection [c] (closed loop) *)
}

let merge a b =
  List.stable_sort (fun x y -> compare (x.due, x.conn) (y.due, y.conn)) (a @ b)

let server_inputs ~seed ~seconds ~small name =
  let p = params ~small name in
  match name with
  | Eager_commits ->
      let setup, g = events_setup ~seed ~tag:1 p in
      let writes =
        List.map
          (fun due -> { due; conn = 0; kind = Write; lines = [ sql (next_dml g) ];
                        commit_frame = 0 })
          (arrivals (rng seed 1 1) ~rate:p.write_rate ~until:seconds)
      in
      let rg = { g with st = rng seed 1 2 } in
      let reads =
        List.map
          (fun due -> { due; conn = 1; kind = Read; lines = [ sql (point_read rg) ];
                        commit_frame = -1 })
          (arrivals (rng seed 1 3) ~rate:p.read_rate ~until:seconds)
      in
      (* closed loop: each connection owns half the live ids and its own
         fresh-id range, so the two streams never touch the same row *)
      let gens =
        Array.init 2 (fun c ->
            { st = rng seed 1 (10 + c);
              live = Live.filter g.live (fun id -> id mod 2 = c);
              next_id = (c + 1) * 100_000_000; groups = p.groups })
      in
      { schema = events_schema :: setup; views = [ events_view ];
        schedule = Array.of_list (merge writes reads);
        closed =
          (fun c ->
            { due = 0.0; conn = c; kind = Write;
              lines = [ sql (next_dml gens.(c)) ]; commit_frame = 0 }) }
  | Lazy_star ->
      let setup, g = star_setup ~seed p in
      let txns =
        List.mapi
          (fun i due ->
            let lines, commit_frame = star_txn p g i in
            { due; conn = 0; kind = Txn; lines; commit_frame })
          (arrivals (rng seed 2 1) ~rate:p.write_rate ~until:seconds)
      in
      let n_txns = List.length txns in
      let rst = rng seed 2 2 in
      let reads =
        List.mapi
          (fun j due ->
            { due; conn = 1; kind = Read; lines = [ sql (star_read rst g j) ];
              commit_frame = -1 })
          (arrivals (rng seed 2 3) ~rate:p.read_rate ~until:seconds)
      in
      let k = ref n_txns in
      { schema = star_schema @ setup; views = star_views;
        schedule = Array.of_list (merge txns reads);
        closed =
          (fun c ->
            let lines, commit_frame = star_txn p g !k in
            incr k;
            { due = 0.0; conn = c; kind = Txn; lines; commit_frame }) }
  | Durable_ingest -> invalid_arg "server_inputs: durable_ingest is embedded"

(* ------------------------------------------------------------------ *)
(* durable_ingest: a closed-loop statement stream                      *)

type dop = Dml of string | Point of string | Checkpoint

type durable_inputs = {
  d_setup : string list;  (** CREATE TABLE, base-row INSERTs, the view *)
  next : unit -> dop;
  skip : int -> unit;
      (** advance the stream past its next [n] commits and the reads and
          checkpoints that follow them, without sending anything *)
}

(* The eager_commits mix, a point read after every [read_every] commits
   and a checkpoint after every [checkpoint_every] commits. *)
let durable_inputs ~seed ~small =
  let p = params ~small Durable_ingest in
  let setup, g = events_setup ~seed ~tag:3 p in
  let rg = { g with st = rng seed 3 2 } in
  let commits = ref 0 and queued = Queue.create () in
  let next () =
    if not (Queue.is_empty queued) then Queue.pop queued
    else begin
      incr commits;
      if !commits mod p.read_every = 0 then Queue.add (Point (point_read rg)) queued;
      if !commits mod p.checkpoint_every = 0 then Queue.add Checkpoint queued;
      Dml (next_dml g)
    end
  in
  let skip n =
    let seen = ref 0 in
    while !seen < n do
      match next () with Dml _ -> incr seen | Point _ | Checkpoint -> ()
    done;
    Queue.clear queued
  in
  { d_setup = (events_schema :: setup) @ [ events_view ]; next; skip }

(* ------------------------------------------------------------------ *)

let digest_prefix_ops = 10_000

(* Fingerprint of a run's operation stream: the setup SQL plus the
   open-loop schedule (which fixes the closed-loop continuation, a
   seeded function of the model the schedule leaves), or for the
   closed-loop durable stream its first [digest_prefix_ops] operations. *)
let digest ~seed ~seconds ~small name =
  let b = Buffer.create 65536 in
  let add s = Buffer.add_string b s; Buffer.add_char b '\n' in
  (match name with
   | Durable_ingest ->
       let d = durable_inputs ~seed ~small in
       List.iter add d.d_setup;
       for _ = 1 to digest_prefix_ops do
         match d.next () with
         | Dml s -> add ("D " ^ s)
         | Point s -> add ("R " ^ s)
         | Checkpoint -> add "C"
       done
   | _ ->
       let i = server_inputs ~seed ~seconds ~small name in
       List.iter add (i.schema @ i.views);
       Array.iter
         (fun op ->
           add (Printf.sprintf "%.9f %d" op.due op.conn);
           List.iter add op.lines)
         i.schedule);
  Digest.to_hex (Digest.string (Buffer.contents b))
