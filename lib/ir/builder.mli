(** Concise construction of IR programs, used by the kernel suite, tests
    and examples.

    {[
      let open Builder in
      let n = v "N" in
      program "matmul" ~params:[ ("N", 512) ]
        ~arrays:[ ("A", [ n; n ]); ("B", [ n; n ]); ("C", [ n; n ]) ]
        [ do_ "J" (i 1) n
            [ do_ "K" (i 1) n
                [ do_ "I" (i 1) n
                    [ asn (r "C" [ v "I"; v "J" ])
                        (ld "C" [ v "I"; v "J" ]
                        +! (ld "A" [ v "I"; v "K" ] *! ld "B" [ v "K"; v "J" ]))
                    ]
                ]
            ]
        ]
    ]} *)

val i : int -> Expr.t
val v : string -> Expr.t
val ( +$ ) : Expr.t -> Expr.t -> Expr.t
val ( -$ ) : Expr.t -> Expr.t -> Expr.t
val ( *$ ) : Expr.t -> Expr.t -> Expr.t
val r : string -> Expr.t list -> Reference.t
val ld : string -> Expr.t list -> Stmt.rexpr
val sc : string -> Stmt.rexpr
val f : float -> Stmt.rexpr
val ( +! ) : Stmt.rexpr -> Stmt.rexpr -> Stmt.rexpr
val ( -! ) : Stmt.rexpr -> Stmt.rexpr -> Stmt.rexpr
val ( *! ) : Stmt.rexpr -> Stmt.rexpr -> Stmt.rexpr
val ( /! ) : Stmt.rexpr -> Stmt.rexpr -> Stmt.rexpr
val sqrt_ : Stmt.rexpr -> Stmt.rexpr

val asn : ?label:string -> Reference.t -> Stmt.rexpr -> Loop.node
val sasn : ?label:string -> string -> Stmt.rexpr -> Loop.node
val do_ : ?step:int -> string -> Expr.t -> Expr.t -> Loop.block -> Loop.node

val program :
  string ->
  ?params:(string * int) list ->
  arrays:(string * Expr.t list) list ->
  Loop.block ->
  Program.t
(** Builds and validates; @raise Invalid_argument on an invalid program. *)
