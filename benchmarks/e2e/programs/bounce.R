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
