(** Graphviz export, mirroring the visual language of the paper's figures:
    ellipses for access nodes, octagons for tasklets, trapezoids for map
    entry/exit, dashed edges for write-conflict-resolution memlets, and
    one cluster per state with blue inter-state transition edges.

    The whole-graph text is also the optimizer's pruning signature.  A
    search prints hundreds of successors that share most of their
    states, so {!signer} keeps each state's cluster by content stamp;
    {!of_sdfg} is a signer used once. *)

val of_state : Defs.state -> string
(** A single state as a standalone digraph. *)

val of_sdfg : Defs.sdfg -> string
(** The whole SDFG: state clusters plus the transition state machine.
    Equal to [signer () g]. *)

val signer : unit -> Defs.sdfg -> string
(** A printer equal to {!of_sdfg} that keeps each state's cluster text
    by content stamp ({!State.stamp}) and reuses it for every state,
    in any graph it is later given, whose stamp it has seen: a state
    reads nothing outside itself to print.  Only the transitions are
    printed anew each time.  The kept texts live as long as the
    returned function, so a caller that prints many graphs sharing
    most of their states (a search and its successors) makes one
    signer for them. *)

val write_file : string -> string -> unit
val save_sdfg : Defs.sdfg -> string -> unit
