C An inner value that loads an integer array element, W(J): integer code
C inside the inner body, so the executor runs this loop scalar.
      REAL x(12), dz(12)
      INTEGER map(12), inblo(13), jnb(2099), w(2099)
C$ DECOMPOSITION reg(12)
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, dz WITH reg
C$ DISTRIBUTE reg(map)
      FORALL i = 1, 12
      FORALL j = inblo(i), inblo(i+1) - 1
      REDUCE(SUM, dz(jnb(j)), x(i) + w(j))
      REDUCE(SUM, dz(i), x(jnb(j)) - w(j))
      END FORALL
      END FORALL
