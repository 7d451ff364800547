"""The LDL1 programs the workloads run, fixed here as benchmark inputs.

They are the paper's programs as the package ships them in
``repro.workloads`` (Section 1 parts explosion and book deals, the
social-network program with grouping and negation, and linear
reachability), copied so that a change to the package's examples can
never change what the benchmark measures.
"""

REACH_PROGRAM = """
reach(U) <- source(U).
reach(V) <- reach(U), follows(U, V).
"""

TC_SCOPED_PROGRAM = """
part(P, <S>) <- p(P, S).
tc({X}, C) <- q(X, C).
tc({X}, C) <- part(X, S), tc(S, C).
tc(S, C) <- part(P, SS), subset(S, SS), partition(S, S1, S2),
            S1 != {}, S2 != {}, tc(S1, C1), tc(S2, C2), C = C1 + C2.
result(X, C) <- tc({X}, C).
"""

BOOK_DEAL_PROGRAM = """
book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz),
                        Px + Py + Pz < 100.
"""

SOCIAL_PROGRAM = """
influences(A, B) <- follows(B, A).
influences(A, B) <- influences(A, C), follows(B, C).

followers(U, <F>) <- follows(F, U).
audience(U, N) <- followers(U, S), card(S, N).

community(T, <U>) <- interest(U, T).

overlap(T1, T2, S) <- community(T1, S1), community(T2, S2), T1 < T2,
                      intersection(S1, S2, S).

candidate(A, B) <- follows(A, M), follows(M, B), A != B.
recommend(A, B) <- candidate(A, B), ~follows(A, B).
"""
