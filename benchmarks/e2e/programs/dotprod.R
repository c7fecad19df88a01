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
