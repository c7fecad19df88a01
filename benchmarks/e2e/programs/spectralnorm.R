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
