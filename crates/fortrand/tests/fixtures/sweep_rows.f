C Inner FORALLs of every length the executor's lane-wise sweep cuts into
C chunks: CSR rows longer than one chunk (300, 257, 512, 513 pairs),
C exactly one chunk (256), one short of it (255), short rows and
C zero-trip rows.  Both statements reduce into DX, the second through the
C outer subscript, so the (iteration, statement) order of the additions
C decides the bits whenever two pairs of a row hit the same element.
      REAL x(12), dx(12)
      INTEGER map(12), inblo(13), jnb(2099)
C$ DECOMPOSITION reg(12)
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, dx WITH reg
C$ DISTRIBUTE reg(map)
      FORALL i = 1, 12
      FORALL j = inblo(i), inblo(i+1) - 1
      REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))
      REDUCE(SUM, dx(i), x(i) - x(jnb(j)))
      END FORALL
      END FORALL
