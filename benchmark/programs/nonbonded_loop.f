C The benchmark's compiled workload (compiled_charmm): the CHARMM-style
C non-bonded sweep of Figure 10 inside the molecular-dynamics time loop.
C A global CSR neighbour list (INBLO/JNB) drives three irregular
C REDUCE(SUM) sweeps, one per coordinate, and an integer list-age update
C that touches no indirection array.
C
C This file is a template: array extents are program text in Fortran, and
C the list length depends on the generated input, so the harness fills in
C the @...@ fields before the text reaches the compiler.
C
C The optimizer is expected to fuse the three sweeps into one schedule
C group, hoist the inspector out of the DO loop and slide the list-age
C update between the gather's start and finish; the optimized program then
C sends exactly the messages of the hand-written driver on a BLOCK
C distribution with one merged schedule.
      REAL x(@NATOMS@), y(@NATOMS@), z(@NATOMS@)
      REAL dx(@NATOMS@), dy(@NATOMS@), dz(@NATOMS@)
      INTEGER inblo(@NATOMS1@), jnb(@NPAIRS@), iage(@NATOMS@)
C$ DECOMPOSITION reg(@NATOMS@)
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y, z, dx, dy, dz WITH reg
      DO istep = 1, @NSTEPS@
      FORALL i = 1, @NATOMS@
      FORALL j = inblo(i), inblo(i+1) - 1
      REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))
      REDUCE(SUM, dx(i), x(i) - x(jnb(j)))
      END FORALL
      END FORALL
      FORALL i = 1, @NATOMS@
      FORALL j = inblo(i), inblo(i+1) - 1
      REDUCE(SUM, dy(jnb(j)), y(jnb(j)) - y(i))
      REDUCE(SUM, dy(i), y(i) - y(jnb(j)))
      END FORALL
      END FORALL
      FORALL i = 1, @NATOMS@
      FORALL j = inblo(i), inblo(i+1) - 1
      REDUCE(SUM, dz(jnb(j)), z(jnb(j)) - z(i))
      REDUCE(SUM, dz(i), z(i) - z(jnb(j)))
      END FORALL
      END FORALL
      FORALL i = 1, @NATOMS@
      iage(i) = iage(i) + 1
      END FORALL
      END DO
