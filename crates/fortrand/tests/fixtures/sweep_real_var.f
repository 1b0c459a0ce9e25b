C An inner body that uses its loop variable J as a real value, real
C literals, and a read of an array the outer body assigns (F is loaded
C through the outer subscript inside the inner loop, not hoisted).
      REAL x(12), f(12), dy(12)
      INTEGER map(12), inblo(13), jnb(2099)
C$ DECOMPOSITION reg(12)
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, f, dy WITH reg
C$ DISTRIBUTE reg(map)
      FORALL i = 1, 12
      f(i) = x(i) * 0.5
      FORALL j = inblo(i), inblo(i+1) - 1
      REDUCE(SUM, dy(jnb(j)), f(i) * j + 0.25)
      REDUCE(SUM, dy(i), x(jnb(j)) / 4.0 - j)
      END FORALL
      END FORALL
