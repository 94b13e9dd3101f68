(** Growable array used for table storage. Slots are mutable and never
    shift, so index structures that store slot numbers stay valid. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] defaults to 8. A zero capacity is legal; growth starts from
    the 8-element floor. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> int
(** Returns the new element's slot. *)

val clear : 'a t -> unit

val truncate : 'a t -> int -> unit
(** [truncate v n] drops every element from slot [n] on; [n] must not
    exceed the length. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
