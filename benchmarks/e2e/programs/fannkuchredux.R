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
