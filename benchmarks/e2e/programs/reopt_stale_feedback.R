stale_kernel <- function(v, n, scale) {
  acc <- 0
  for (i in 1:n) acc <- acc + v[[i]] * scale
  acc
}

stale_run <- function(v, n, scale, reps) {
  s <- 0
  for (r in 1:reps) s <- s + stale_kernel(v, n, scale)
  s
}
