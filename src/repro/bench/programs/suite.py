"""The main benchmark suite — mini-R ports of the Ř benchmark suite
programs used in the paper's section 5.1 mis-speculation experiment
(themselves derived from the are-we-fast-yet / CLBG suites).

Every program is a plain mini-R function workload: loop-heavy, numeric, and
full of speculation opportunities (element types, scalar unboxing, call
targets), so the chaos mode's random assumption failures have guards to
trip.  Sizes are tuned so one iteration of each takes on the order of tens
of milliseconds in the baseline interpreter.
"""

from __future__ import annotations

from ..workload import REGISTRY, Workload

# ---------------------------------------------------------------------------
# bounce — balls bouncing in a box (are-we-fast-yet)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="bounce",
    source="""
bounce_run <- function(n, iters) {
  x <- numeric(n); y <- numeric(n)
  vx <- numeric(n); vy <- numeric(n)
  seedv <- 74755
  for (i in 1:n) {
    seedv <- (seedv * 1309 + 13849) %% 65536
    x[[i]] <- seedv %% 500
    seedv <- (seedv * 1309 + 13849) %% 65536
    y[[i]] <- seedv %% 500
    seedv <- (seedv * 1309 + 13849) %% 65536
    vx[[i]] <- seedv %% 300 / 10 - 15
    seedv <- (seedv * 1309 + 13849) %% 65536
    vy[[i]] <- seedv %% 300 / 10 - 15
  }
  bounces <- 0
  for (it in 1:iters) {
    for (i in 1:n) {
      nx <- x[[i]] + vx[[i]]
      ny <- y[[i]] + vy[[i]]
      if (nx > 500) { nx <- 500; vx[[i]] <- 0 - abs(vx[[i]]); bounces <- bounces + 1 }
      if (nx < 0)   { nx <- 0;   vx[[i]] <- abs(vx[[i]]);     bounces <- bounces + 1 }
      if (ny > 500) { ny <- 500; vy[[i]] <- 0 - abs(vy[[i]]); bounces <- bounces + 1 }
      if (ny < 0)   { ny <- 0;   vy[[i]] <- abs(vy[[i]]);     bounces <- bounces + 1 }
      x[[i]] <- nx
      y[[i]] <- ny
    }
  }
  bounces
}
""",
    setup="invisible(NULL)",
    call="bounce_run({n}L, 12L)",
    n=60,
    n_test=8,
))

# ---------------------------------------------------------------------------
# mandelbrot — complex arithmetic (CLBG)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="mandelbrot",
    source="""
mandel <- function(size) {
  total <- 0L
  fsize <- size * 1.0
  for (yi in 1:size) {
    ci <- 2.0 * yi / fsize - 1.0
    for (xi in 1:size) {
      cr <- 2.0 * xi / fsize - 1.5
      zr <- 0.0; zi <- 0.0
      k <- 0L
      inside <- TRUE
      while (k < 50L) {
        k <- k + 1L
        zr2 <- zr * zr
        zi2 <- zi * zi
        if (zr2 + zi2 > 4.0) { inside <- FALSE; k <- 50L }
        else {
          nzr <- zr2 - zi2 + cr
          zi <- 2.0 * zr * zi + ci
          zr <- nzr
        }
      }
      if (inside) total <- total + 1L
    }
  }
  total
}
""",
    setup="invisible(NULL)",
    call="mandel({n}L)",
    n=40,
    n_test=12,
))

# ---------------------------------------------------------------------------
# nbody — planetary dynamics (CLBG)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="nbody",
    source="""
nbody_energy <- function(px, py, pz, vx, vy, vz, mass, nb) {
  e <- 0.0
  for (i in 1:nb) {
    e <- e + 0.5 * mass[[i]] * (vx[[i]]*vx[[i]] + vy[[i]]*vy[[i]] + vz[[i]]*vz[[i]])
    j <- i + 1L
    while (j <= nb) {
      dx <- px[[i]] - px[[j]]
      dy <- py[[i]] - py[[j]]
      dz <- pz[[i]] - pz[[j]]
      e <- e - mass[[i]] * mass[[j]] / sqrt(dx*dx + dy*dy + dz*dz)
      j <- j + 1L
    }
  }
  e
}

nbody_step <- function(px, py, pz, vx, vy, vz, mass, nb, steps) {
  dt <- 0.01
  for (s in 1:steps) {
    for (i in 1:nb) {
      j <- i + 1L
      while (j <= nb) {
        dx <- px[[i]] - px[[j]]
        dy <- py[[i]] - py[[j]]
        dz <- pz[[i]] - pz[[j]]
        d2 <- dx*dx + dy*dy + dz*dz
        mag <- dt / (d2 * sqrt(d2))
        vx[[i]] <- vx[[i]] - dx * mass[[j]] * mag
        vy[[i]] <- vy[[i]] - dy * mass[[j]] * mag
        vz[[i]] <- vz[[i]] - dz * mass[[j]] * mag
        vx[[j]] <- vx[[j]] + dx * mass[[i]] * mag
        vy[[j]] <- vy[[j]] + dy * mass[[i]] * mag
        vz[[j]] <- vz[[j]] + dz * mass[[i]] * mag
        j <- j + 1L
      }
      px[[i]] <- px[[i]] + dt * vx[[i]]
      py[[i]] <- py[[i]] + dt * vy[[i]]
      pz[[i]] <- pz[[i]] + dt * vz[[i]]
    }
  }
  nbody_energy(px, py, pz, vx, vy, vz, mass, nb)
}

nbody_run <- function(steps) {
  nb <- 5L
  pi2 <- 3.141592653589793
  solar <- 4.0 * pi2 * pi2
  days <- 365.24
  px <- c(0, 4.84143144246472090, 8.34336671824457987, 12.894369562139131, 15.379697114850917)
  py <- c(0, -1.16032004402742839, 4.12479856412430479, -15.111151401698631, -25.919314609987964)
  pz <- c(0, -0.103622044471123109, -0.403523417114321381, -0.223307578892655734, 0.179258772950371181)
  vx <- c(0, 0.00166007664274403694*days, -0.00276742510726862411*days, 0.00296460137564761618*days, 0.00288930532631982525*days)
  vy <- c(0, 0.00769901118419740425*days, 0.00499852801234917238*days, 0.00237847173959480950*days, 0.00114718438148081685*days)
  vz <- c(0, -0.0000690460016972063023*days, 0.0000230417297573763929*days, -0.0000296589568540237556*days, -0.000039021756012170231*days)
  mass <- c(1.0*solar, 0.000954791938424326609*solar, 0.000285885980666130812*solar,
            0.0000436624404335156298*solar, 0.0000515138902046611451*solar)
  momx <- 0.0; momy <- 0.0; momz <- 0.0
  for (i in 1:nb) {
    momx <- momx + vx[[i]] * mass[[i]]
    momy <- momy + vy[[i]] * mass[[i]]
    momz <- momz + vz[[i]] * mass[[i]]
  }
  vx[[1]] <- 0.0 - momx / mass[[1]]
  vy[[1]] <- 0.0 - momy / mass[[1]]
  vz[[1]] <- 0.0 - momz / mass[[1]]
  nbody_step(px, py, pz, vx, vy, vz, mass, nb, steps)
}
""",
    setup="invisible(NULL)",
    call="nbody_run({n}L)",
    n=120,
    n_test=10,
))

# ---------------------------------------------------------------------------
# spectralnorm (CLBG)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="spectralnorm",
    source="""
eval_A <- function(i, j) 1.0 / ((i + j) * (i + j + 1) / 2 + i + 1)

eval_A_times_u <- function(u, n) {
  v <- numeric(n)
  for (i in 1:n) {
    s <- 0.0
    for (j in 1:n) s <- s + eval_A(i - 1L, j - 1L) * u[[j]]
    v[[i]] <- s
  }
  v
}

eval_At_times_u <- function(u, n) {
  v <- numeric(n)
  for (i in 1:n) {
    s <- 0.0
    for (j in 1:n) s <- s + eval_A(j - 1L, i - 1L) * u[[j]]
    v[[i]] <- s
  }
  v
}

spectral_run <- function(n) {
  u <- numeric(n)
  for (i in 1:n) u[[i]] <- 1.0
  v <- numeric(n)
  for (k in 1:4) {
    v <- eval_At_times_u(eval_A_times_u(u, n), n)
    u <- eval_At_times_u(eval_A_times_u(v, n), n)
  }
  vBv <- 0.0; vv <- 0.0
  for (i in 1:n) {
    vBv <- vBv + u[[i]] * v[[i]]
    vv <- vv + v[[i]] * v[[i]]
  }
  sqrt(vBv / vv)
}
""",
    setup="invisible(NULL)",
    call="spectral_run({n}L)",
    n=40,
    n_test=8,
))

# ---------------------------------------------------------------------------
# dotprod — BLAS-1 style reductions: dot product + gather sum
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="dotprod",
    source="""
ddot <- function(x, y, n) {
  d <- 0.0
  for (i in 1:n) d <- d + x[[i]] * y[[i]]
  d
}

gather_sum <- function(x, idx, n) {
  g <- 0.0
  for (i in 1:n) g <- g + x[[idx[[i]]]]
  g
}

dot_run <- function(x, y, idx, n, reps) {
  acc <- 0.0
  for (r in 1:reps) acc <- acc + ddot(x, y, n) + gather_sum(x, idx, n)
  acc
}
""",
    setup="""
x <- 1.5 * (1:{n})
y <- 0.25 * (1:{n})
idx <- integer({n})
for (i in 1:{n}) idx[[i]] <- {n} + 1L - i
""",
    call="dot_run(x, y, idx, {n}L, 8L)",
    n=20000,
    n_test=2000,
    notes="two fused reductions per pass: x.y and a reversed-index "
          "gather sum (fsum kernels) under a scalar repeat driver",
))

# ---------------------------------------------------------------------------
# fannkuchredux — integer permutations (CLBG)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="fannkuchredux",
    source="""
fannkuch <- function(n) {
  perm1 <- integer(n)
  for (i in 1:n) perm1[[i]] <- i
  perm <- integer(n)
  count <- integer(n)
  maxflips <- 0L
  r <- n
  done <- FALSE
  while (!done) {
    while (r > 1L) { count[[r]] <- r; r <- r - 1L }
    for (i in 1:n) perm[[i]] <- perm1[[i]]
    flips <- 0L
    k <- perm[[1]]
    while (k != 1L) {
      i <- 1L
      j <- k
      while (i < j) {
        t <- perm[[i]]; perm[[i]] <- perm[[j]]; perm[[j]] <- t
        i <- i + 1L; j <- j - 1L
      }
      flips <- flips + 1L
      k <- perm[[1]]
    }
    if (flips > maxflips) maxflips <- flips
    advancing <- TRUE
    while (advancing) {
      if (r == n) { done <- TRUE; advancing <- FALSE }
      else {
        # rotate the first r+1 elements left by one
        p0 <- perm1[[1]]
        i <- 1L
        while (i <= r) { perm1[[i]] <- perm1[[i + 1L]]; i <- i + 1L }
        perm1[[r + 1L]] <- p0
        count[[r + 1L]] <- count[[r + 1L]] - 1L
        if (count[[r + 1L]] > 0L) advancing <- FALSE
        else r <- r + 1L
      }
    }
  }
  maxflips
}
""",
    setup="invisible(NULL)",
    call="fannkuch({n}L)",
    n=7,
    n_test=5,
))

# ---------------------------------------------------------------------------
# pidigits — spigot algorithm on growing integers (CLBG, simplified)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="pidigits",
    source="""
pidigits_run <- function(ndigits) {
  # all-integer spigot: mini-R integers are arbitrary precision, like R+gmp
  q <- 1L; r <- 0L; t <- 1L; k <- 1L; nd <- 3L; l <- 3L
  produced <- 0L
  checksum <- 0L
  while (produced < ndigits) {
    if (4L * q + r - t < nd * t) {
      checksum <- (checksum * 10L + nd) %% 1000000L
      produced <- produced + 1L
      nr <- 10L * (r - nd * t)
      nd <- (10L * (3L * q + r)) %/% t - 10L * nd
      q <- q * 10L
      r <- nr
    } else {
      nr <- (2L * q + r) * l
      nn <- (q * (7L * k) + 2L + r * l) %/% (t * l)
      q <- q * k
      t <- t * l
      l <- l + 2L
      k <- k + 1L
      nd <- nn
      r <- nr
    }
  }
  checksum
}
""",
    setup="invisible(NULL)",
    call="pidigits_run({n}L)",
    n=120,
    n_test=25,
))

# ---------------------------------------------------------------------------
# binarytrees — allocation-heavy recursion over lists (CLBG)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="binarytrees",
    source="""
bt_make <- function(depth) {
  if (depth == 0L) list(NULL, NULL)
  else list(bt_make(depth - 1L), bt_make(depth - 1L))
}

bt_check <- function(node) {
  if (is.null(node[[1]])) 1L
  else 1L + bt_check(node[[1]]) + bt_check(node[[2]])
}

binarytrees_run <- function(maxdepth) {
  total <- 0L
  d <- 4L
  while (d <= maxdepth) {
    iters <- 2L ^ (maxdepth - d + 4L)
    csum <- 0L
    for (i in 1:iters) csum <- csum + bt_check(bt_make(d))
    total <- total + csum %% 100000L
    d <- d + 2L
  }
  total
}
""",
    setup="invisible(NULL)",
    call="binarytrees_run({n}L)",
    n=6,
    n_test=4,
))

# ---------------------------------------------------------------------------
# storage — vector growth and nested lists (Ř suite / Martin's storage)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="storage",
    source="""
storage_build <- function(depth, seedv) {
  count <- 0L
  stack <- list()
  top <- 0L
  node_depth <- depth
  while (node_depth > 0L) {
    arr <- numeric(4L)
    for (i in 1:4L) {
      seedv <- (seedv * 1309L + 13849L) %% 65536L
      arr[[i]] <- seedv
    }
    count <- count + 4L
    top <- top + 1L
    stack[[top]] <- arr
    node_depth <- node_depth - 1L
  }
  s <- 0
  for (i in 1:top) {
    a <- stack[[i]]
    for (j in 1:4L) s <- s + a[[j]]
  }
  s + count
}

storage_run <- function(reps) {
  acc <- 0
  for (r in 1:reps) acc <- acc + storage_build(40L, r)
  acc %% 1000000
}
""",
    setup="invisible(NULL)",
    call="storage_run({n}L)",
    n=120,
    n_test=20,
))

# ---------------------------------------------------------------------------
# flexclust — k-means style clustering (the paper's memory outlier)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="flexclust",
    source="""
kmeans_assign <- function(xs, ys, cx, cy, assign, npts, k) {
  changed <- 0L
  for (i in 1:npts) {
    best <- 1L
    bestd <- 1e300
    for (c in 1:k) {
      dx <- xs[[i]] - cx[[c]]
      dy <- ys[[i]] - cy[[c]]
      d <- dx * dx + dy * dy
      if (d < bestd) { bestd <- d; best <- c }
    }
    if (assign[[i]] != best) { assign[[i]] <- best; changed <- changed + 1L }
  }
  list(assign, changed)
}

kmeans_update <- function(xs, ys, assign, npts, k) {
  cx <- numeric(k); cy <- numeric(k); cnt <- integer(k)
  for (i in 1:npts) {
    c <- assign[[i]]
    cx[[c]] <- cx[[c]] + xs[[i]]
    cy[[c]] <- cy[[c]] + ys[[i]]
    cnt[[c]] <- cnt[[c]] + 1L
  }
  for (c in 1:k) {
    if (cnt[[c]] > 0L) { cx[[c]] <- cx[[c]] / cnt[[c]]; cy[[c]] <- cy[[c]] / cnt[[c]] }
  }
  list(cx, cy)
}

flexclust_run <- function(npts) {
  k <- 5L
  xs <- numeric(npts); ys <- numeric(npts)
  seedv <- 12345
  for (i in 1:npts) {
    seedv <- (seedv * 1309 + 13849) %% 65536
    xs[[i]] <- seedv / 655.36
    seedv <- (seedv * 1309 + 13849) %% 65536
    ys[[i]] <- seedv / 655.36
  }
  assign <- integer(npts)
  for (i in 1:npts) assign[[i]] <- i %% k + 1L
  cx <- numeric(k); cy <- numeric(k)
  for (c in 1:k) { cx[[c]] <- c * 17.0; cy[[c]] <- c * 11.0 }
  iters <- 0L
  changed <- 1L
  while (changed > 0L && iters < 15L) {
    res <- kmeans_assign(xs, ys, cx, cy, assign, npts, k)
    assign <- res[[1]]
    changed <- res[[2]]
    cents <- kmeans_update(xs, ys, assign, npts, k)
    cx <- cents[[1]]
    cy <- cents[[2]]
    iters <- iters + 1L
  }
  s <- 0
  for (c in 1:k) s <- s + cx[[c]] + cy[[c]]
  s
}
""",
    setup="invisible(NULL)",
    call="flexclust_run({n}L)",
    n=300,
    n_test=40,
))

# ---------------------------------------------------------------------------
# primes — sieve of Eratosthenes (logical vectors)
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="primes",
    source="""
sieve_run <- function(limit) {
  flags <- logical(limit)
  for (i in 1:limit) flags[[i]] <- TRUE
  count <- 0L
  i <- 2L
  while (i <= limit) {
    if (flags[[i]]) {
      count <- count + 1L
      j <- i + i
      while (j <= limit) {
        flags[[j]] <- FALSE
        j <- j + i
      }
    }
    i <- i + 1L
  }
  count
}
""",
    setup="invisible(NULL)",
    call="sieve_run({n}L)",
    n=4000,
    n_test=500,
))

# ---------------------------------------------------------------------------
# nbody_naive — the paper's excluded-by-runtime benchmark: same physics but
# through a megamorphic accessor layer, pathological under chaos mode
# ---------------------------------------------------------------------------

REGISTRY.add(Workload(
    name="nbody_naive",
    source="""
vget <- function(v, i) v[[i]]
vset <- function(v, i, x) { v[[i]] <- x; v }

naive_energy <- function(px, py, pz, mass, nb) {
  e <- 0.0
  for (i in 1:nb) {
    j <- i + 1L
    while (j <= nb) {
      dx <- vget(px, i) - vget(px, j)
      dy <- vget(py, i) - vget(py, j)
      dz <- vget(pz, i) - vget(pz, j)
      e <- e - vget(mass, i) * vget(mass, j) / sqrt(dx*dx + dy*dy + dz*dz)
      j <- j + 1L
    }
  }
  e
}

nbody_naive_run <- function(reps) {
  nb <- 5L
  px <- c(0, 4.84, 8.34, 12.89, 15.37)
  py <- c(0, -1.16, 4.12, -15.11, -25.91)
  pz <- c(0, -0.10, -0.40, -0.22, 0.17)
  mass <- c(39.47, 0.037, 0.011, 0.0017, 0.0020)
  e <- 0.0
  for (r in 1:reps) e <- e + naive_energy(px, py, pz, mass, nb)
  e
}
""",
    setup="invisible(NULL)",
    call="nbody_naive_run({n}L)",
    n=250,
    n_test=25,
    notes="excluded from the paper's Figure 6 (too slow in the deopt-trigger mode)",
))
