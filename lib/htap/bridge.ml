(** The cross-system transfer layer (the paper's DuckDB↔PostgreSQL scanner
    link, Figure 3). Rows are serialized to a wire format and back, and a
    configurable per-batch latency models the network/IPC round trip —
    the knob separating "pure" from "cross-system" numbers in E3.

    On top of the raw row channel sits a batch protocol for exactly-once
    delivery: every batch carries its source table, a per-source sequence
    number and a checksum, and {!send} runs it through the configured
    {!Fault} harness — batches can be dropped, duplicated, held back past
    a later batch, or corrupted on the wire. The receiving side (see
    {!Pipeline}) detects corruption via the checksum and duplicates via
    per-source watermarks; the sender retries unacknowledged batches. *)

open Openivm_engine

type t = {
  batch_latency : float;      (** seconds per transferred batch *)
  per_row_cost : float;       (** seconds per transferred row *)
  faults : Fault.t;
  mutable batches : int;
  mutable rows_shipped : int;
  mutable bytes_shipped : int;
  mutable held : batch list;  (** reordered batches awaiting release *)
}

and batch = {
  source : string;            (** base table the deltas belong to *)
  seq : int;                  (** per-source sequence number, from 1 *)
  payload : string array;     (** serialized rows *)
  checksum : int;
}

let create ?(batch_latency = 200e-6) ?(per_row_cost = 0.2e-6) ?faults () : t =
  let faults =
    match faults with Some f -> f | None -> Fault.create Fault.none
  in
  { batch_latency; per_row_cost; faults;
    batches = 0; rows_shipped = 0; bytes_shipped = 0; held = [] }

let faults t = t.faults

(* Wire format: length-prefixed textual values — enough to measure
   serialization cost honestly without inventing a binary protocol. *)
let serialize_row (row : Row.t) : string =
  let buf = Buffer.create 64 in
  Array.iter
    (fun v ->
       let s =
         match v with
         | Value.Null -> "\x00"
         (* hex float: exact round trip *)
         | Value.Float f -> Printf.sprintf "%h" f
         | v -> Value.to_string v
       in
       Buffer.add_string buf (string_of_int (String.length s));
       Buffer.add_char buf ':';
       Buffer.add_string buf s;
       Buffer.add_char buf (match v with
         | Value.Null -> 'n'
         | Value.Bool _ -> 'b'
         | Value.Int _ -> 'i'
         | Value.Float _ -> 'f'
         | Value.Str _ -> 's'
         | Value.Date _ -> 'd'))
    row;
  Buffer.contents buf

let deserialize_row (wire : string) : Row.t =
  let values = ref [] in
  let i = ref 0 in
  let n = String.length wire in
  (try
     while !i < n do
       let colon = String.index_from wire !i ':' in
       let len = int_of_string (String.sub wire !i (colon - !i)) in
       let payload = String.sub wire (colon + 1) len in
       let tag = wire.[colon + 1 + len] in
       let v =
         match tag with
         | 'n' -> Value.Null
         | 'b' -> Value.Bool (String.equal payload "true")
         | 'i' -> Value.Int (int_of_string payload)
         | 'f' -> Value.Float (float_of_string payload)
         | 's' -> Value.Str payload
         | 'd' ->
           (match Value.date_of_string payload with
            | Value.Date _ as d -> d
            | _ -> Error.fail "bridge: bad date payload %S" payload)
         | c -> Error.fail "bridge: bad wire tag %C" c
       in
       values := v :: !values;
       i := colon + 2 + len
     done
   with Not_found | Failure _ | Invalid_argument _ ->
     Error.fail "bridge: malformed wire row %S" wire);
  Array.of_list (List.rev !values)

(* --- checksummed batches --- *)

(* 32-bit FNV-1a over source, sequence number and payload bytes. *)
let compute_checksum ~(source : string) ~(seq : int) (payload : string array) :
  int =
  let mask = 0xFFFFFFFF in
  let h = ref 0x811c9dc5 in
  let feed_byte b = h := ((!h lxor b) * 0x01000193) land mask in
  let feed_string s =
    String.iter (fun c -> feed_byte (Char.code c)) s;
    feed_byte 0xFF  (* separator: "ab"+"c" ≠ "a"+"bc" *)
  in
  feed_string source;
  feed_string (string_of_int seq);
  Array.iter feed_string payload;
  !h

let make_batch ~(source : string) ~(seq : int) (rows : Row.t list) : batch =
  let payload = Array.of_list (List.map serialize_row rows) in
  { source; seq; payload; checksum = compute_checksum ~source ~seq payload }

let batch_bytes (b : batch) : int =
  Array.fold_left (fun acc s -> acc + String.length s) 0 b.payload

let verify (b : batch) : bool =
  b.checksum = compute_checksum ~source:b.source ~seq:b.seq b.payload

let batch_rows (b : batch) : Row.t list =
  if not (verify b) then
    Error.fail "bridge: checksum mismatch on batch %s#%d" b.source b.seq;
  Array.to_list (Array.map deserialize_row b.payload)

let busy_wait seconds =
  if seconds > 0.0 then begin
    let deadline = Unix.gettimeofday () +. seconds in
    while Unix.gettimeofday () < deadline do () done
  end

(* Flip one payload byte; the checksum travels unchanged, so the receiver
   sees the mismatch. *)
let corrupt_copy (t : t) (b : batch) : batch =
  let total = batch_bytes b in
  if total = 0 then b
  else begin
    let target = Fault.draw t.faults total in
    let payload = Array.copy b.payload in
    let pos = ref 0 in
    Array.iteri
      (fun i s ->
         let len = String.length s in
         if target >= !pos && target < !pos + len then begin
           let bs = Bytes.of_string s in
           let j = target - !pos in
           Bytes.set bs j (Char.chr (Char.code (Bytes.get bs j) lxor 0x20));
           payload.(i) <- Bytes.to_string bs
         end;
         pos := !pos + len)
      b.payload;
    { b with payload }
  end

let account t (b : batch) =
  t.batches <- t.batches + 1;
  t.rows_shipped <- t.rows_shipped + Array.length b.payload;
  t.bytes_shipped <- t.bytes_shipped + batch_bytes b;
  busy_wait
    (t.batch_latency
     +. (t.per_row_cost *. float_of_int (Array.length b.payload)))

(** Put [b] on the wire. Returns the batches the far side receives from
    this transmission, in arrival order: the batch itself (possibly
    corrupted, possibly twice, possibly not at all), followed by any
    previously held-back batches — which therefore arrive out of order.
    Delivery is decided by the fault harness; with {!Fault.none} this is
    exactly [[b]]. *)
let send (t : t) (b : batch) : batch list =
  account t b;
  let released = List.rev t.held in
  t.held <- [];
  let deliveries =
    if Fault.roll t.faults Fault.Drop then []
    else if Fault.roll t.faults Fault.Reorder then begin
      t.held <- b :: t.held;
      []
    end
    else begin
      let copies =
        if Fault.roll t.faults Fault.Duplicate then [ b; b ] else [ b ]
      in
      List.map
        (fun c ->
           if Fault.roll t.faults Fault.Corrupt then corrupt_copy t c else c)
        copies
    end
  in
  deliveries @ released

(** Deliver everything still sitting in the pipe (recovery drains the
    network before replaying). *)
let flush (t : t) : batch list =
  let released = List.rev t.held in
  t.held <- [];
  released

(** Throw away in-flight batches (full resync rebuilds from base tables,
    so stale traffic must not resurface afterwards). Returns how many were
    discarded. *)
let discard_in_flight (t : t) : int =
  let n = List.length t.held in
  t.held <- [];
  n

(** Ship a batch of rows across the bridge reliably: serialize, pay the
    transfer cost, deserialize on the far side. The fault harness does not
    apply — this is the full-resync / ship-everything baseline path. *)
let ship (t : t) (rows : Row.t list) : Row.t list =
  let wire = List.map serialize_row rows in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 wire in
  t.batches <- t.batches + 1;
  t.rows_shipped <- t.rows_shipped + List.length rows;
  t.bytes_shipped <- t.bytes_shipped + bytes;
  busy_wait (t.batch_latency +. (t.per_row_cost *. float_of_int (List.length rows)));
  List.map deserialize_row wire

let stats t = (t.batches, t.rows_shipped, t.bytes_shipped)
