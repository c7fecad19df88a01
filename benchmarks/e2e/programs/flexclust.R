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
